"""Deterministic scripted fault schedules.

Tests and stabilization experiments want *exact* adversaries: "fail cell
(2,3) at round 10, recover it at round 50". A scripted model is a list of
timed events compiled into per-round decisions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.faults.model import FaultDecision, FaultModel
from repro.grid.topology import CellId


@dataclass(frozen=True)
class FaultEvent:
    """One timed event: fail or recover a cell at a given round."""

    round_index: int
    cell: CellId
    kind: str  # "fail" | "recover"

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "recover"):
            raise ValueError(f"kind must be 'fail' or 'recover', got {self.kind!r}")
        if self.round_index < 0:
            raise ValueError(f"round_index must be nonnegative, got {self.round_index}")


def partition_events(
    wall: Iterable[CellId], down_round: int, heal_round: int
) -> List[FaultEvent]:
    """The event list of a healing partition: a wall of cells (typically a
    full grid row or column) fails simultaneously at ``down_round`` and
    recovers simultaneously at ``heal_round``.

    Used by the ``partition_heal`` adversary class; exposed standalone so
    tests and experiments can script exact partitions.
    """
    if heal_round <= down_round:
        raise ValueError(
            f"heal_round must follow down_round, got {down_round} -> {heal_round}"
        )
    events: List[FaultEvent] = []
    for cell in sorted(set(wall)):
        events.append(FaultEvent(down_round, cell, "fail"))
        events.append(FaultEvent(heal_round, cell, "recover"))
    return events


class ScriptedFaultModel(FaultModel):
    """Replay an explicit event list, ignoring the rng entirely."""

    def __init__(self, events: Sequence[FaultEvent]):
        self._by_round: Dict[int, List[FaultEvent]] = {}
        for event in events:
            self._by_round.setdefault(event.round_index, []).append(event)

    @classmethod
    def fail_at(
        cls, schedule: Iterable[Tuple[int, CellId]]
    ) -> "ScriptedFaultModel":
        """Shorthand for fail-only scripts: ``[(round, cell), ...]``."""
        return cls([FaultEvent(rnd, cell, "fail") for rnd, cell in schedule])

    @classmethod
    def partition(
        cls, wall: Iterable[CellId], down_round: int, heal_round: int
    ) -> "ScriptedFaultModel":
        """A partition mask: fail every ``wall`` cell at ``down_round``,
        heal them all at ``heal_round``."""
        return cls(partition_events(wall, down_round, heal_round))

    @property
    def last_round(self) -> int:
        """The round of the final scripted event (-1 when empty)."""
        return max(self._by_round, default=-1)

    def decide(
        self,
        round_index: int,
        alive: Sequence[CellId],
        failed: Sequence[CellId],
        rng: random.Random,
    ) -> FaultDecision:
        events = self._by_round.get(round_index, [])
        fail: Set[CellId] = {e.cell for e in events if e.kind == "fail"}
        recover: Set[CellId] = {e.cell for e in events if e.kind == "recover"}
        overlap = fail & recover
        if overlap:
            raise ValueError(
                f"round {round_index}: cells scheduled to both fail and recover: "
                f"{sorted(overlap)}"
            )
        return FaultDecision(fail=frozenset(fail), recover=frozenset(recover))
