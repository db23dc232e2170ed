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

Every caller hands :func:`_route_step` the *integer* view of the
effective dists (:func:`~repro.core.cell.dist_to_int`, failed cells at
the sentinel). A full sweep converts each cell once per phase
(:func:`int_dist_snapshot`); holders that evaluate a few cells convert
on read (:class:`repro.core.dirty.LiveDistView`, the timed engine's
received adverts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

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
    snapshot = int_dist_snapshot(cells)
    report = RoutePhaseReport()
    for cid, state in cells.items():
        if state.failed or cid == tid:
            continue
        new_dist, new_next = _route_step(grid, cid, snapshot)
        if new_dist != state.dist:
            report.changed_dist.append(cid)
            state.dist = new_dist
        if new_next != state.next_id:
            report.changed_next.append(cid)
            state.next_id = new_next
    return report


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
