"""Dirty cells: which cells a round must re-evaluate, and why.

The paper's round is locally triggered. A cell's Route output can only
change when a neighbor's effective ``dist`` changed or a fail/recover
event touched the neighborhood, and Signal is a provable no-op for a
cell whose ``NEPrev`` is empty and stays empty. :class:`DirtyCells`
keeps one dirty set per phase over the cells its holder *owns* and is
the single definition of the rules that fill them. Two holders use it:

* the incremental engine (:class:`repro.sim.engine.IncrementalEngine`)
  owns the whole grid, of a ``System`` or of a multi-commodity system
  (there a dist change of any commodity fires the Route rule, and one
  Route set covers every commodity);
* a shard worker (:class:`repro.shard.worker.DistrictWorker`) owns one
  district. A rule fired for any cell marks only the owned neighbors;
  changes outside the district reach the worker as changed rim ghosts,
  which it feeds into the same rules.

========  ==========================================================
Route     re-evaluate a cell next round iff a neighbor's effective
          ``dist`` changed this round, or a fail/recover event touched
          the cell or a neighbor. (Route reads only neighbor dists.)
Signal    re-evaluate a cell this round iff it is *hot* (its last
          evaluation left a nonempty ``NEPrev`` — it granted or
          blocked, so it must run again), or a neighbor's ``next``
          changed in this round's Route phase, or a neighbor's
          membership changed last round (transfer/production/seeding),
          or a fail/recover event touched the cell or a neighbor.
          A skipped cell provably holds ``(NEPrev, token, signal) =
          (empty, bot, bot)`` — exactly what re-evaluation would write.
========  ==========================================================

Both sets start full: a new holder's first round is a full sweep.
This module imports only ``repro.core`` and the grid, so the worker
process stays lean.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.cell import DIST_SENTINEL, CellState, dist_to_int
from repro.grid.topology import CellId, Grid


def row_major(cid: CellId) -> Tuple[int, int]:
    """Sort key reproducing ``Grid.cells()`` iteration order (j, then i).

    The reference sweeps iterate ``cells.items()`` — insertion order,
    which is ``Grid.cells()`` row-major order. Dirty sets are unordered,
    so every holder sorts with this key to keep report lists
    byte-identical to the reference.
    """
    return (cid[1], cid[0])


class LiveDistView:
    """Mapping view of the *current* effective dists in the integer
    embedding, for ``_route_step``.

    A holder evaluates its dirty cells first and writes all results
    afterwards, so reading the live state through this view *is* the
    pre-phase snapshot — without the O(cells) copy. Each read converts
    one dist (:func:`~repro.core.cell.dist_to_int`; failed cells read
    as the sentinel). Cells the holder does not own are read from
    ``ghosts`` (a shard worker's rim, float dists as they travel).
    """

    __slots__ = ("_cells", "_ghosts")

    def __init__(
        self,
        cells: Dict[CellId, CellState],
        ghosts: Optional[Mapping[CellId, float]] = None,
    ):
        self._cells = cells
        self._ghosts = ghosts

    def __getitem__(self, cid: CellId) -> int:
        state = self._cells.get(cid)
        if state is None:
            return dist_to_int(self._ghosts[cid])
        return DIST_SENTINEL if state.failed else dist_to_int(state.dist)


class DirtyCells:
    """Per-phase dirty sets over the cells a holder owns, and their rules.

    A mixin: the holder calls :meth:`_track` once, fires the ``_mark_*``
    rules as state changes, and drains each phase's set with
    :meth:`_take_route_dirty` / :meth:`_take_signal_pending`.
    """

    _route_dirty: Set[CellId]
    _signal_pending: Set[CellId]

    def _track(self, grid: Grid, owned: Optional[Iterable[CellId]] = None) -> None:
        """Own ``owned`` (default: every cell of ``grid``), all dirty."""
        if owned is None:
            self._owned_cells: Tuple[CellId, ...] = tuple(grid.cells())
            self._owned_table = None
        else:
            self._owned_cells = tuple(owned)
            inside = set(self._owned_cells)
            # Owned neighbors of every owned cell and of every cell next
            # to one (the cells whose changes can concern the holder).
            table = {}
            for cid in self._owned_cells:
                for cell in (cid, *grid.neighbors(cid)):
                    if cell not in table:
                        table[cell] = [n for n in grid.neighbors(cell) if n in inside]
            self._owned_table = table
        self._grid = grid
        self.invalidate_all()

    def _owned_neighbors(self, cid: CellId) -> List[CellId]:
        if self._owned_table is None:
            return self._grid.neighbors(cid)
        return self._owned_table[cid]

    # -- the rules -----------------------------------------------------

    def _mark_fault_event(self, cid: CellId) -> None:
        """A fail/recover transition of owned cell ``cid`` changes every
        shared variable the neighbors observe (masking), and resets the
        cell's own state."""
        self._route_dirty.add(cid)
        self._signal_pending.add(cid)
        for nbr in self._owned_neighbors(cid):
            self._route_dirty.add(nbr)
            self._signal_pending.add(nbr)

    def _mark_dist_change(self, cid: CellId) -> None:
        """``cid``'s dist changed: neighbors re-run Route next round."""
        self._route_dirty.update(self._owned_neighbors(cid))

    def _mark_membership_change(self, cid: CellId) -> None:
        """``cid``'s membership changed: neighbors' ``NEPrev`` may differ."""
        self._signal_pending.update(self._owned_neighbors(cid))

    def _mark_next_change(self, cid: CellId) -> None:
        """``cid``'s next changed in this round's Route: both the old and
        the new pointee (all its neighbors) recompute ``NEPrev`` *this*
        round — Signal reads post-Route state within the same update."""
        self._signal_pending.update(self._owned_neighbors(cid))

    def _keep_hot(self, cid: CellId, ne_prev) -> None:
        """Hot: a cell whose ``NEPrev`` came out nonempty granted or
        blocked, so its token/signal must be recomputed next round
        regardless of events."""
        if ne_prev:
            self._signal_pending.add(cid)

    # -- draining ------------------------------------------------------

    def _take_route_dirty(self) -> List[CellId]:
        """This round's Route set in row-major order; the set restarts empty."""
        dirty, self._route_dirty = self._route_dirty, set()
        return sorted(dirty, key=row_major)

    def _take_signal_pending(self) -> List[CellId]:
        """This round's Signal set in row-major order; the set restarts
        empty (the hot rule refills it while the phase runs)."""
        pending, self._signal_pending = self._signal_pending, set()
        return sorted(pending, key=row_major)

    # -- external invalidation -----------------------------------------

    def invalidate(self, cid: CellId) -> None:
        """Mark ``cid``'s whole neighborhood dirty for every phase.

        External code that mutates cell state directly (outside the
        transitions that notify the holder automatically) must call
        this, or the holder may keep treating the region as quiescent.
        """
        self._mark_fault_event(cid)

    def invalidate_all(self) -> None:
        """Forget all quiescence: the next round re-evaluates every cell."""
        self._route_dirty = set(self._owned_cells)
        self._signal_pending = set(self._owned_cells)
