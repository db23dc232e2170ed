"""Progress and stabilization monitors (paper Sections III-B and III-C).

* Routing stabilization (Lemma 6 / Corollary 7): compare each target-
  connected cell's ``dist``/``next`` against the BFS ground truth
  ``rho``; detect the round at which they coincide and stay coincident.
* Entity progress (Theorem 10): track per-entity birth, transfers, and
  consumption, exposing transit latencies and in-flight ages so tests can
  assert "every entity on a TC cell is eventually consumed".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.cell import INFINITY
from repro.core.move import MovePhaseReport
from repro.core.system import RoundReport, System
from repro.grid.topology import CellId


def routing_matches_ground_truth(system: System, strict: bool = False) -> bool:
    """Lemma 6 fixed point: for every *target-connected* cell, ``dist``
    equals the true path distance and ``next`` steps to a cell one hop
    closer.

    Cells outside ``TC`` are deliberately not constrained by default: the
    paper's Lemma 6 / Corollary 7 only claim stabilization for TC cells,
    and for good reason — a live island walled off from the target by
    failed cells exhibits count-to-infinity (its dists grow forever and
    never reach the infinity ground truth). ``strict=True`` additionally
    requires non-TC live cells to report ``dist = infinity``; that holds
    in fault-free and corridor setups where every non-TC live cell is
    isolated, but not under arbitrary crash patterns.
    """
    rho = system.path_distance()
    for cid, state in system.cells.items():
        if state.failed:
            continue
        truth = rho[cid]
        if truth == INFINITY:
            if strict and (state.dist != INFINITY or state.next_id is not None):
                return False
            continue
        if state.dist != truth:
            return False
        if cid == system.tid:
            continue
        nxt = state.next_id
        if nxt is None or rho[nxt] != truth - 1:
            return False
    return True


def routing_stabilization_round(
    system: System, max_rounds: int, require_hold: int = 1
) -> Optional[int]:
    """Run updates until routing matches ground truth and holds.

    Returns the first round index (counting from the current round) after
    which the match held for ``require_hold`` consecutive checks, or None
    if it never did within ``max_rounds``. Mutates ``system``.
    """
    held = 0
    for k in range(max_rounds + 1):
        if routing_matches_ground_truth(system):
            held += 1
            if held >= require_hold:
                return k - (require_hold - 1)
        else:
            held = 0
        system.update()
    return None


@dataclass
class EntityRecord:
    """Lifecycle of one in-flight entity as observed by the tracker."""

    uid: int
    birth_round: int
    source: CellId
    hops: int = 0


@dataclass
class EntityTracker:
    """Feed with each round's report; aggregates per-entity lifecycles.

    Only in-flight entities keep an :class:`EntityRecord`. When an
    entity is consumed, its transit latency is folded into a
    value-count histogram, its source into a per-source counter, and
    the record is dropped, so memory is bounded by the live population
    (transit latencies concentrate on a narrow integer range, which
    keeps the histogram small).
    """

    records: Dict[int, EntityRecord] = field(default_factory=dict)
    latency_counts: Counter = field(default_factory=Counter, init=False)
    consumed_by_source: Counter = field(default_factory=Counter, init=False)

    def observe(self, report: RoundReport) -> None:
        """Ingest one round's report (births, hops, consumptions)."""
        for entity in report.produced:
            self.records[entity.uid] = EntityRecord(
                uid=entity.uid, birth_round=entity.birth_round, source=entity.cell
            )
        self._observe_moves(report.move, report.round_index)

    def _observe_moves(self, move: MovePhaseReport, round_index: int) -> None:
        for transfer in move.transfers:
            record = self.records.get(transfer.uid)
            if record is None:
                # Entity predates the tracker (seeded directly); adopt it.
                record = EntityRecord(
                    uid=transfer.uid, birth_round=round_index, source=transfer.src
                )
                self.records[transfer.uid] = record
            record.hops += 1
            if transfer.consumed:
                self.latency_counts[round_index - record.birth_round] += 1
                self.consumed_by_source[record.source] += 1
                del self.records[transfer.uid]

    def latencies(self) -> List[int]:
        """Transit latencies of all consumed entities (sorted, exact)."""
        out: List[int] = []
        for value in sorted(self.latency_counts):
            out.extend([value] * self.latency_counts[value])
        return out

    def oldest_in_flight_age(self, current_round: int) -> Optional[int]:
        """Age (rounds) of the oldest in-flight entity, or None."""
        ages = [current_round - r.birth_round for r in self.records.values()]
        return max(ages) if ages else None
