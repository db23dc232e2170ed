"""The Route function (paper Figure 4).

Route maintains a self-stabilizing distance-vector routing table. Each
non-faulty, non-target cell simultaneously recomputes

    ``dist := 1 + min over neighbors of dist``
    ``next := bot``                          if the new dist is infinite,
    ``next := argmin (dist, id) neighbor``   otherwise (ties by identifier)

from the *previous round's* neighbor values (Jacobi-style simultaneous
update — this is what gives the ``h``-round stabilization bound of
Lemma 6; a sequential sweep would stabilize faster but match neither the
paper's message-passing reading nor its proofs).

Failed neighbors are observed as ``dist = infinity`` via the effective
view, so routes around crashes re-form automatically once recomputation
propagates — Corollary 7's ``O(N^2)`` bound.

:func:`route_cells` is the one loop around the per-cell step: the full
sweep (:func:`route_phase`), ``System.route_cells`` (the incremental
engine and the shard coordinator's fallback) and the shard workers run
it. Every caller hands :func:`_route_step` the *integer* view of the
effective dists (:func:`~repro.core.cell.dist_to_int`, failed cells at
the sentinel). A full sweep converts each cell once per phase
(:func:`int_dist_snapshot`); holders that evaluate a few cells convert
on read (:class:`repro.core.dirty.LiveDistView`, the timed engine's
received adverts). The loop, the shard coordinator's merge of worker
replies, the timed engine's processes and the centralized baseline
record each changed field through :func:`write_route`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.cell import DIST_SENTINEL, INFINITY, CellState, dist_to_int
from repro.grid.topology import CellId, Grid


@dataclass
class RoutePhaseReport:
    """What the Route phase changed this round (for monitors and metrics)."""

    changed_dist: List[CellId] = field(default_factory=list)
    changed_next: List[CellId] = field(default_factory=list)

    @property
    def quiescent(self) -> bool:
        """True when the phase was a fixed point (routing has stabilized)."""
        return not self.changed_dist and not self.changed_next


def int_dist_snapshot(cells: Dict[CellId, CellState]) -> Dict[CellId, int]:
    """Every cell's effective dist in the integer embedding, converted
    once: the pre-phase snapshot a full Route sweep reads."""
    return {
        cid: DIST_SENTINEL if state.failed else dist_to_int(state.dist)
        for cid, state in cells.items()
    }


def route_phase(
    grid: Grid,
    cells: Dict[CellId, CellState],
    tid: CellId,
) -> RoutePhaseReport:
    """Apply Route simultaneously to every non-faulty, non-target cell."""
    return route_cells(grid, cells, tid, cells, int_dist_snapshot(cells))


def route_cells(
    grid: Grid,
    cells: Mapping[CellId, CellState],
    tid: CellId,
    cids: Iterable[CellId],
    dists: Mapping[CellId, int],
) -> RoutePhaseReport:
    """Route at the non-faulty, non-target cells among ``cids``.

    Computes every listed cell's result before writing any, so the
    cells read each other's pre-phase dists (the Jacobi step); the
    report lists the changes in the order of ``cids``. ``dists`` maps
    every neighbor of a listed cell to its effective dist in the
    integer embedding (see :func:`_route_step`); ``cells`` may hold
    cells the loop never evaluates (a shard worker's rim).
    """
    updates = []
    for cid in cids:
        state = cells[cid]
        if state.failed or cid == tid:
            continue
        new_dist, new_next = _route_step(grid, cid, dists)
        if new_dist != state.dist or new_next != state.next_id:
            updates.append((state, new_dist, new_next))
    report = RoutePhaseReport()
    for state, new_dist, new_next in updates:
        write_route(state, new_dist, new_next, report)
    return report


def write_route(
    state: CellState,
    new_dist: float,
    new_next: Optional[CellId],
    report: RoutePhaseReport,
) -> None:
    """Write one cell's Route result, recording each field that changed."""
    if new_dist != state.dist:
        report.changed_dist.append(state.cell_id)
        state.dist = new_dist
    if new_next != state.next_id:
        report.changed_next.append(state.cell_id)
        state.next_id = new_next


def _route_step(
    grid: Grid,
    cid: CellId,
    dists: Mapping[CellId, int],
) -> Tuple[float, Optional[CellId]]:
    """One cell's Route computation against the neighbors' integer dists.

    ``dists`` maps each neighbor to its effective dist in the
    integral-with-sentinel embedding (:func:`repro.core.cell.dist_to_int`),
    so the ``(dist, id)`` argmin compares integers — no accumulated-float
    equality is ever relied on, and the vectorized engine's integer
    argmin provably matches. The neighbors are scanned in ascending
    identifier order with a strict ``<``, so a tie keeps the smaller
    identifier.
    """
    best: Optional[CellId] = None
    best_dist = DIST_SENTINEL
    for nbr in grid.neighbors_by_id(cid):
        nbr_dist = dists[nbr]
        if nbr_dist < best_dist:
            best_dist = nbr_dist
            best = nbr
    if best is None:
        return INFINITY, None
    return float(best_dist + 1), best
