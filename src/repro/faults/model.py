"""Fault model interface and the Bernoulli crash-recovery model.

A fault model is consulted once per round, *before* the ``update``
transition (the paper's ``fail`` transitions interleave between atomic
updates), and decides which cells to fail and which to recover.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import FrozenSet, Sequence, Set, Tuple

from repro.grid.topology import CellId


@dataclass(frozen=True)
class FaultDecision:
    """The fail/recover sets for one round."""

    fail: FrozenSet[CellId] = frozenset()
    recover: FrozenSet[CellId] = frozenset()

    @property
    def is_quiet(self) -> bool:
        return not self.fail and not self.recover


class FaultModel:
    """Interface: decide the fault events of each round."""

    def decide(
        self,
        round_index: int,
        alive: Sequence[CellId],
        failed: Sequence[CellId],
        rng: random.Random,
    ) -> FaultDecision:
        """Return which of the ``alive`` cells crash and which of the
        ``failed`` cells recover this round.

        ``alive`` and ``failed`` are lists in ascending cell-id order. A
        model that draws from ``rng`` draws in that order, which makes
        the rng stream independent of set order and runs reproducible
        for a given seed.

        The injector owns both lists: it keeps them current from the
        system's ``fail``/``recover`` events instead of rebuilding them
        each round. They are read-only, and valid only during the call;
        a model that needs them afterwards keeps a copy.
        """
        raise NotImplementedError

    def follow_target(self, old: CellId, new: CellId) -> None:
        """The target moved from ``old`` to ``new`` (the injector calls
        this before the next decision). A model that protects the target
        moves the protection along; the default protects nothing."""


class NoFaults(FaultModel):
    """The fault-free environment (Figures 7 and 8)."""

    def decide(
        self,
        round_index: int,
        alive: Sequence[CellId],
        failed: Sequence[CellId],
        rng: random.Random,
    ) -> FaultDecision:
        return FaultDecision()


@dataclass
class BernoulliFaultModel(FaultModel):
    """The Figure 9 model: i.i.d. per-round, per-cell fail/recover coins.

    Each live cell fails with probability ``pf``; each failed cell recovers
    with probability ``pr``. ``immune`` cells never fail — the analysis
    sections assume the target is immune, while the Figure 9 experiment
    lets every cell (including the target) fail and recover; both setups
    are expressible. An immune target stays immune where it moves: the
    old cell loses the protection and the new one gains it (a set that
    already holds the new target is left as it is).

    The long-run fraction of failed cells approaches
    ``pf / (pf + pr)`` (the stationary point of the two-state chain).
    """

    pf: float
    pr: float
    immune: FrozenSet[CellId] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.pf <= 1.0:
            raise ValueError(f"pf must be in [0, 1], got {self.pf}")
        if not 0.0 <= self.pr <= 1.0:
            raise ValueError(f"pr must be in [0, 1], got {self.pr}")

    def stationary_failed_fraction(self) -> float:
        """Expected long-run fraction of failed (non-immune) cells."""
        if self.pf == 0.0:
            return 0.0
        if self.pf + self.pr == 0.0:
            return 0.0
        return self.pf / (self.pf + self.pr)

    def follow_target(self, old: CellId, new: CellId) -> None:
        if old in self.immune and new not in self.immune:
            self.immune = (self.immune - {old}) | {new}

    def decide(
        self,
        round_index: int,
        alive: Sequence[CellId],
        failed: Sequence[CellId],
        rng: random.Random,
    ) -> FaultDecision:
        """One coin per live non-immune cell, then one per failed cell,
        in ascending order. The immune cells are cut out of ``alive`` by
        position, so no coin waits on a set lookup."""
        pf, pr, draw = self.pf, self.pr, rng.random
        to_fail = {cid for cid in _without(alive, self.immune) if draw() < pf}
        to_recover = {cid for cid in failed if draw() < pr}
        return FaultDecision(fail=frozenset(to_fail), recover=frozenset(to_recover))


def _without(
    ordered: Sequence[CellId], excluded: FrozenSet[CellId]
) -> Sequence[CellId]:
    """``ordered`` (ascending) less the ``excluded`` ids, each found by
    bisection; ``ordered`` itself when none of them is in it."""
    positions = []
    for cid in excluded:
        k = bisect_left(ordered, cid)
        if k < len(ordered) and ordered[k] == cid:
            positions.append(k)
    if not positions:
        return ordered
    kept = list(ordered)
    for k in sorted(positions, reverse=True):
        del kept[k]
    return kept


@dataclass
class ComposedFaultModel(FaultModel):
    """The union of several models' decisions in one environment.

    Lets a scripted adversary campaign play *on top of* background
    Bernoulli churn. Decisions are consulted in tuple order (so the rng
    stream stays deterministic) and unioned; a cell both failed and
    recovered by different models fails (the adversary wins ties — the
    conservative reading for safety properties).
    """

    models: Tuple[FaultModel, ...]

    def follow_target(self, old: CellId, new: CellId) -> None:
        for model in self.models:
            model.follow_target(old, new)

    def decide(
        self,
        round_index: int,
        alive: Sequence[CellId],
        failed: Sequence[CellId],
        rng: random.Random,
    ) -> FaultDecision:
        fail: Set[CellId] = set()
        recover: Set[CellId] = set()
        for model in self.models:
            decision = model.decide(round_index, alive, failed, rng)
            fail |= decision.fail
            recover |= decision.recover
        return FaultDecision(
            fail=frozenset(fail), recover=frozenset(recover - fail)
        )


@dataclass
class WindowedFaultModel(FaultModel):
    """Wrap a model so it is active only during ``[start, stop)`` rounds.

    Used by stabilization experiments: inject faults for a window, then
    measure how long recovery of routing/progress takes after the window
    closes (the paper's "once new failures cease" premise). Cells failed
    during the window optionally all recover at ``stop``.
    """

    inner: FaultModel
    start: int
    stop: int
    recover_all_at_stop: bool = False

    def follow_target(self, old: CellId, new: CellId) -> None:
        self.inner.follow_target(old, new)

    def decide(
        self,
        round_index: int,
        alive: Sequence[CellId],
        failed: Sequence[CellId],
        rng: random.Random,
    ) -> FaultDecision:
        if self.start <= round_index < self.stop:
            return self.inner.decide(round_index, alive, failed, rng)
        if self.recover_all_at_stop and round_index == self.stop:
            return FaultDecision(recover=frozenset(failed))
        return FaultDecision()
