"""Structural invariants and the signal-gap predicate.

* **Invariant 1** — every entity's footprint lies inside its cell: center
  in ``[i + l/2, i+1 - l/2] x [j + l/2, j+1 - l/2]``.
* **Invariant 2** — the ``Members`` sets are pairwise disjoint (checked
  via global uid uniqueness, which is equivalent and linear-time).
* **Predicate H** — whenever ``signal_{i,j} = <m,n>``, the depth-``d``
  strip of cell ``<i,j>`` along the edge facing ``<m,n>`` contains no
  entity. The paper proves H holds *at the point Signal computes the
  variable* (Lemma 3); it may be broken later in the same round by the
  granting cell's own movement. The recorder therefore evaluates it
  between the Signal and Move phases via the phase-hook interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.cell import CellState
from repro.core.entity import Entity
from repro.core.params import Parameters
from repro.core.signal import gap_clear
from repro.core.system import System
from repro.geometry.tolerance import tol_ge, tol_le
from repro.grid.topology import CellId, direction_between


@dataclass(frozen=True)
class ContainmentViolation:
    """An entity sticking out of (or straddling) its cell's boundary."""

    cell: CellId
    uid: int
    x: float
    y: float

    def __str__(self) -> str:
        return (
            f"cell {self.cell}: entity {self.uid} at ({self.x:.6f}, {self.y:.6f}) "
            "extends beyond the cell boundary"
        )


def cell_containment_violations(
    cid: CellId, entities: List[Entity], half_l: float
) -> Iterator[ContainmentViolation]:
    """Invariant 1 on one cell: members whose footprint leaves it.

    ``entities`` are the cell's members in uid order
    (:meth:`CellState.entities`).
    """
    i, j = cid
    for entity in entities:
        inside = (
            tol_ge(entity.x, i + half_l)
            and tol_le(entity.x, i + 1 - half_l)
            and tol_ge(entity.y, j + half_l)
            and tol_le(entity.y, j + 1 - half_l)
        )
        if not inside:
            yield ContainmentViolation(cell=cid, uid=entity.uid, x=entity.x, y=entity.y)


def containment_violations(system: System) -> Iterator[ContainmentViolation]:
    """Invariant 1 violations in the current state."""
    half = system.params.half_l
    for cid, state in system.cells.items():
        if state.members:
            yield from cell_containment_violations(cid, state.entities(), half)


def check_containment(system: System) -> List[ContainmentViolation]:
    """Invariant 1 over the whole system; empty list means it holds."""
    return list(containment_violations(system))


def note_members(
    cid: CellId,
    members: Iterable[int],
    seen: Dict[int, CellId],
    duplicated: List[int],
) -> None:
    """Invariant 2, one cell at a time: append to ``duplicated`` every
    uid in ``members`` that an earlier cell (recorded in ``seen``)
    already holds."""
    for uid in members:
        if uid in seen:
            duplicated.append(uid)
        else:
            seen[uid] = cid


def check_disjoint_membership(system: System) -> List[int]:
    """Invariant 2: uids appearing in more than one cell (empty = holds)."""
    seen: Dict[int, CellId] = {}
    duplicated: List[int] = []
    for cid, state in system.cells.items():
        note_members(cid, state.members, seen, duplicated)
    return duplicated


@dataclass(frozen=True)
class SignalGapViolation:
    """A granted signal without the required clear entry strip (predicate H)."""

    cell: CellId
    granted_to: CellId

    def __str__(self) -> str:
        return (
            f"cell {self.cell}: signal granted to {self.granted_to} without a "
            "clear depth-d strip on the shared edge"
        )


def cell_signal_gap_violation(
    cid: CellId, state: CellState, params: Parameters
) -> Optional[SignalGapViolation]:
    """Predicate H on one cell that holds a grant (``state.signal`` set,
    not failed): the violation, or None when the strip is clear."""
    if gap_clear(state, direction_between(cid, state.signal), params):
        return None
    return SignalGapViolation(cell=cid, granted_to=state.signal)


def signal_gap_violations(
    cells: Dict[CellId, CellState], params: Parameters
) -> Iterator[SignalGapViolation]:
    """Predicate H violations, evaluated on a post-Signal/pre-Move state."""
    for cid, state in cells.items():
        if state.failed or state.signal is None:
            continue
        violation = cell_signal_gap_violation(cid, state, params)
        if violation is not None:
            yield violation


def check_signal_gap(
    cells: Dict[CellId, CellState], params: Parameters
) -> List[SignalGapViolation]:
    """Predicate H over all cells; empty list means it holds."""
    return list(signal_gap_violations(cells, params))


def is_two_cycle_head(
    cid: CellId, state: CellState, cells: Dict[CellId, CellState]
) -> bool:
    """Whether a granting cell (``state.signal`` set, not failed) and the
    cell it signals point at each other, counted once per unordered pair
    (at the lower id)."""
    sig = state.signal
    if sig <= cid:
        return False
    partner = cells.get(sig)
    return partner is not None and not partner.failed and partner.signal == cid


def two_cycle_signal_pairs(system: System) -> List[tuple]:
    """Pairs of adjacent cells whose signals point at each other.

    Lemma 4 asserts that no transfer can happen between such a pair in the
    same round; the recorder cross-checks this against the Move report.
    """
    cells = system.cells
    return [
        (cid, state.signal)
        for cid, state in cells.items()
        if not state.failed
        and state.signal is not None
        and is_two_cycle_head(cid, state, cells)
    ]
