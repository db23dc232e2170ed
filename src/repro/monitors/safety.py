"""The safety property ``Safe`` (paper Section III-A, Theorem 5).

A state is safe when, in every cell, any two distinct entities' centers
differ by at least ``d = rs + l`` along some axis. In a safe state the
edges of co-resident entities are separated by at least ``rs``; entities
in *adjacent* cells may be closer (their centers at least ``l`` apart),
which the paper accepts by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.core.cell import CellState
from repro.core.entity import Entity
from repro.core.system import System
from repro.geometry.separation import (
    axis_separated,
    min_axis_separation,
    pairwise_axis_separated,
)
from repro.grid.topology import CellId


@dataclass(frozen=True)
class SafetyViolation:
    """A pair of entities in one cell closer than ``d`` on both axes."""

    cell: CellId
    uid_a: int
    uid_b: int
    separation: float
    required: float

    def __str__(self) -> str:
        return (
            f"cell {self.cell}: entities {self.uid_a} and {self.uid_b} "
            f"separated by {self.separation:.6f} < required {self.required:.6f}"
        )


def cell_safety_violations(
    cid: CellId, entities: List[Entity], d: float
) -> Iterator[SafetyViolation]:
    """``Safe_{i,j}`` on one cell: every member pair closer than ``d``.

    ``entities`` are the cell's members in uid order
    (:meth:`CellState.entities`); pairs are yielded in that order. The
    separation helpers read only ``x`` and ``y``, which an entity holds
    as its center, so no ``Point`` is built per pair.
    """
    for a in range(len(entities)):
        for b in range(a + 1, len(entities)):
            pa, pb = entities[a], entities[b]
            if not axis_separated(pa, pb, d):  # type: ignore[arg-type]
                yield SafetyViolation(
                    cell=cid,
                    uid_a=pa.uid,
                    uid_b=pb.uid,
                    separation=min_axis_separation(pa, pb),  # type: ignore[arg-type]
                    required=d,
                )


def safe_cell(state: CellState, d: float) -> bool:
    """``Safe_{i,j}(x)``: all member pairs axis-separated by ``d``."""
    return pairwise_axis_separated(state.members.values(), d)


def safety_violations(system: System) -> Iterator[SafetyViolation]:
    """Yield every violating pair in the current state."""
    d = system.params.d
    for cid, state in system.cells.items():
        members = state.members
        if len(members) > 1 and not pairwise_axis_separated(members.values(), d):
            yield from cell_safety_violations(cid, state.entities(), d)


def check_safe(system: System) -> List[SafetyViolation]:
    """``Safe(x)`` over the whole system; empty list means safe."""
    return list(safety_violations(system))
