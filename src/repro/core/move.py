"""The Move function (paper Figure 6).

A non-faulty cell whose ``next`` neighbor granted it the signal shifts all
its entities by ``v`` toward that neighbor. Entities whose leading edge
strictly crosses the shared boundary are transferred: removed from the
moving cell, and — unless the neighbor consumes them (the target; in a
multi-commodity system, the entity's own commodity's target) — added to
the neighbor with their trailing edge snapped onto the boundary
(``px := m + l/2`` and symmetric cases).

Movement for all cells happens against a snapshot of the post-Signal
``signal``/``next`` values; transfers are applied after every cell has
moved, so a just-transferred entity is never moved twice in one round.
At most one neighbor can transfer into a given cell per round because
``signal`` is a single value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro.core.cell import CellState, effective_signal
from repro.core.dirty import row_major
from repro.core.entity import Entity
from repro.core.params import Parameters
from repro.geometry.tolerance import strictly_greater, strictly_less
from repro.grid.topology import CellId, Direction, Grid, direction_between


@dataclass(frozen=True)
class Transfer:
    """One entity crossing between cells (or into the target)."""

    uid: int
    src: CellId
    dst: CellId
    consumed: bool


@dataclass
class MovePhaseReport:
    """Physical outcome of one Move phase."""

    moved_cells: List[CellId] = field(default_factory=list)
    transfers: List[Transfer] = field(default_factory=list)
    consumed: List[Entity] = field(default_factory=list)
    """Entities that reached the target this round (with final state)."""


def crossed_boundary(
    entity: Entity, cell: CellId, toward: Direction, half_l: float
) -> bool:
    """Has ``entity``'s leading edge strictly passed the boundary of
    ``cell`` in direction ``toward``? (Paper Figure 6, lines 6-7.)"""
    i, j = cell
    if toward is Direction.EAST:
        return strictly_greater(entity.x + half_l, i + 1)
    if toward is Direction.WEST:
        return strictly_less(entity.x - half_l, i)
    if toward is Direction.NORTH:
        return strictly_greater(entity.y + half_l, j + 1)
    return strictly_less(entity.y - half_l, j)


def collect_movers(cells: Dict[CellId, CellState]) -> List[Tuple[CellId, CellId]]:
    """Snapshot the grant each cell observes: ``(mover, next)`` pairs.

    A cell moves this round when it is non-faulty, has entities, and its
    ``next`` neighbor's (post-Signal) ``signal`` points back at it. The
    full-sweep engine calls this scan; the other engines derive the same
    pairs from the round's grant report (:func:`movers_from_grants`:
    every mover corresponds to exactly one grant, since ``signal`` is
    single-valued and set fresh each round).
    """
    movers: List[Tuple[CellId, CellId]] = []
    for cid, state in cells.items():
        if state.failed or state.next_id is None or not state.members:
            continue
        nxt = state.next_id
        if effective_signal(cells[nxt]) == cid:
            movers.append((cid, nxt))
    return movers


def movers_from_grants(
    granted: Mapping[CellId, CellId],
) -> List[Tuple[CellId, CellId]]:
    """The same pairs as :func:`collect_movers`, derived from one round's
    grant report (``granter -> grantee``), in row-major mover order.

    A cell moves iff its ``next`` granted it the signal this round. The
    engines that skip quiescent cells use this: a skipped cell holds
    ``signal = bot`` (the Signal invariant) and every hot cell's grant
    is recomputed each round, so the report is exactly the full scan.
    """
    return sorted(
        ((grantee, granter) for granter, grantee in granted.items()),
        key=lambda pair: row_major(pair[0]),
    )


def apply_moves(
    grid: Grid,
    cells: Dict[CellId, CellState],
    params: Parameters,
    consumes: Callable[[Entity, CellId], bool],
    movers: List[Tuple[CellId, CellId]],
) -> MovePhaseReport:
    """Execute the Move function for the given ``(mover, next)`` pairs.

    ``consumes(entity, dst)`` says whether ``dst`` consumes an entity
    crossing into it (``System.consumes``).
    """
    report = MovePhaseReport()
    v, half_l = params.v, params.half_l
    pending: List[Tuple[Entity, CellId, CellId, Direction]] = []
    for cid, nxt in movers:
        state = cells[cid]
        toward = direction_between(cid, nxt)
        report.moved_cells.append(cid)
        for entity in state.entities():
            entity.translate(toward, v)
            if crossed_boundary(entity, cid, toward, half_l):
                pending.append((entity, cid, nxt, toward))

    for entity, cid, nxt, toward in pending:
        cells[cid].remove_entity(entity.uid)
        if consumes(entity, nxt):
            report.consumed.append(entity)
            report.transfers.append(
                Transfer(uid=entity.uid, src=cid, dst=nxt, consumed=True)
            )
        else:
            entity.snap_to_entry_edge(nxt, toward, half_l)
            cells[nxt].add_entity(entity)
            report.transfers.append(
                Transfer(uid=entity.uid, src=cid, dst=nxt, consumed=False)
            )
    return report


def move_phase(
    grid: Grid,
    cells: Dict[CellId, CellState],
    params: Parameters,
    tid: CellId,
) -> MovePhaseReport:
    """Apply Move simultaneously to every non-faulty cell."""
    return apply_moves(
        grid, cells, params, lambda entity, dst: dst == tid, collect_movers(cells)
    )
