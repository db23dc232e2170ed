"""The monitor suite: continuous runtime verification of a running system.

Attach a :class:`MonitorSuite` to a ``System`` (it installs itself as the
system's phase observer) and call :meth:`after_round` from the simulation
loop. Every proved property is then checked on every round of every
experiment — the reproduction does not merely *assume* Theorem 5, it
re-verifies it continuously, and any discrepancy between the paper's
claims and the implementation surfaces immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.system import RoundReport, System
from repro.geometry.separation import pairwise_axis_separated
from repro.grid.topology import CellId
from repro.monitors.invariants import (
    ContainmentViolation,
    SignalGapViolation,
    cell_containment_violations,
    cell_signal_gap_violation,
    is_two_cycle_head,
    members_contained,
    note_members,
)
from repro.monitors.safety import SafetyViolation, cell_safety_violations


@dataclass(frozen=True)
class Violation:
    """One detected property violation."""

    round_index: int
    property_name: str
    detail: str


class MonitorViolation(AssertionError):
    """Raised in strict mode when any monitored property fails."""

    def __init__(self, violation: Violation):
        super().__init__(
            f"round {violation.round_index}: {violation.property_name}: "
            f"{violation.detail}"
        )
        self.violation = violation


@dataclass
class MonitorSuite:
    """Configurable bundle of per-round property checks.

    ``strict=True`` (the default) raises on the first violation —
    appropriate for tests and for the paper-faithful protocol, which is
    proved to never violate them. ``strict=False`` records violations
    instead, which is what the *unsafe baseline* benchmarks use to count
    how often a signal-free protocol breaks separation.
    """

    check_safety: bool = True
    check_invariant_1: bool = True
    check_invariant_2: bool = True
    check_h_predicate: bool = True
    check_lemma_4: bool = True
    strict: bool = True
    violations: List[Violation] = field(default_factory=list)
    metrics: Optional[object] = None
    """Optional :class:`repro.obs.metrics.MetricsRegistry`; when set,
    every recorded violation also increments ``monitors.violations``
    (counted *before* a strict-mode raise, so the tally survives)."""

    on_violation: Optional[object] = None
    """Optional callback ``(Violation) -> None`` invoked on every recorded
    violation, before a strict-mode raise. The live-verdict stream:
    ``repro serve`` wires it to emit ``service.violation`` events so a
    long-running service reports property violations as they happen
    instead of only in the final summary."""

    _signal_pairs: List[tuple] = field(default_factory=list)

    def attach(self, system: System) -> "MonitorSuite":
        """Install as ``system.phase_observer`` (returns self for chaining)."""
        system.phase_observer = self._on_phase
        return self

    # ------------------------------------------------------------------

    def _on_phase(self, phase: str, system: System) -> None:
        """At the Signal notification: predicate H and the Lemma 4 pairs,
        in one pass over every cell (H violations are recorded first)."""
        if phase != "signal":
            return
        check_h = self.check_h_predicate
        check_pairs = self.check_lemma_4
        if not (check_h or check_pairs):
            return
        cells = system.cells
        params = system.params
        gaps: List[SignalGapViolation] = []
        pairs: List[tuple] = []
        for cid, state in cells.items():
            if state.signal is None or state.failed:
                continue
            if check_h:
                gap = cell_signal_gap_violation(cid, state, params)
                if gap is not None:
                    gaps.append(gap)
            if check_pairs and is_two_cycle_head(cid, state, cells):
                pairs.append((cid, state.signal))
        for gap in gaps:
            self._record(system.round_index, "predicate-H", str(gap))
        if check_pairs:
            self._signal_pairs = pairs

    def after_round(self, system: System, report: RoundReport) -> None:
        """Run the post-state checks for the round just completed.

        Safe, Invariant 1 and Invariant 2 share one pass over every cell
        (an empty cell cannot violate any of them). Safe and Invariant 1
        test an occupied cell's members as they stand
        (``pairwise_axis_separated``, ``members_contained``); only a
        cell that fails is sorted (``entities()``) to report its
        violations in uid order. Those are then recorded property by
        property: all Safe, then Invariant 1, then Invariant 2, then
        Lemma 4.
        """
        rnd = report.round_index
        check_safety = self.check_safety
        check_inv1 = self.check_invariant_1
        check_inv2 = self.check_invariant_2
        unsafe: List[SafetyViolation] = []
        outside: List[ContainmentViolation] = []
        duplicated: List[int] = []
        if check_safety or check_inv1 or check_inv2:
            d = system.params.d
            half_l = system.params.half_l
            seen: Dict[int, CellId] = {}
            for cid, state in system.cells.items():
                members = state.members
                if not members:
                    continue
                if check_inv2:
                    note_members(cid, members, seen, duplicated)
                if (
                    check_safety
                    and len(members) > 1
                    and not pairwise_axis_separated(members.values(), d)
                ):
                    unsafe.extend(cell_safety_violations(cid, state.entities(), d))
                if check_inv1 and not members_contained(
                    cid, members.values(), half_l
                ):
                    outside.extend(
                        cell_containment_violations(cid, state.entities(), half_l)
                    )
        for violation in unsafe:
            self._record(rnd, "Safe (Theorem 5)", str(violation))
        for violation in outside:
            self._record(rnd, "Invariant 1", str(violation))
        for uid in duplicated:
            self._record(
                rnd, "Invariant 2", f"entity {uid} present in multiple cells"
            )
        if self.check_lemma_4 and self._signal_pairs:
            crossings = {
                frozenset((t.src, t.dst)) for t in report.move.transfers
            }
            for a, b in self._signal_pairs:
                if frozenset((a, b)) in crossings:
                    self._record(
                        rnd,
                        "Lemma 4",
                        f"transfer occurred between mutually signaling cells {a}, {b}",
                    )
            self._signal_pairs = []

    # ------------------------------------------------------------------

    def _record(self, round_index: int, name: str, detail: str) -> None:
        violation = Violation(round_index=round_index, property_name=name, detail=detail)
        self.violations.append(violation)
        if self.metrics is not None:
            self.metrics.counter("monitors.violations").inc()
        if self.on_violation is not None:
            self.on_violation(violation)
        if self.strict:
            raise MonitorViolation(violation)

    @property
    def clean(self) -> bool:
        return not self.violations

    def violation_counts(self) -> dict:
        """Violations grouped by property name (for the unsafe baseline)."""
        counts: dict = {}
        for violation in self.violations:
            counts[violation.property_name] = counts.get(violation.property_name, 0) + 1
        return counts
