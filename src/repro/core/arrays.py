"""Structure-of-arrays protocol state: the vectorized engine's core.

The object model (:class:`~repro.core.cell.CellState` per cell, entity
objects in per-cell dicts) is the semantic reference, but it caps
throughput: every Route sweep is ``O(N^2)`` Python bytecode. This module
provides the flat array mirror that turns the per-round sweeps into a
handful of whole-grid numpy operations:

* :class:`GridArrays` — ``dist``/``next``/``token``/``signal`` as flat
  ``int64`` arrays (one slot per cell, row-major ``k = j * width + i``),
  with :data:`~repro.core.cell.DIST_SENTINEL` for ``dist = infinity``
  and :data:`NO_CELL` (= -1) for a bottom cell reference, plus boolean
  ``failed`` and integer ``member_count`` arrays, and Route's work buffers:
  one sentinel-padded dist buffer and the four neighbor-id arrays,
  allocated once.
* :class:`EntityArrays` — entities packed as parallel ``(cell, x, y)``
  arrays (uids alongside). Only its tests pack it today; an array-native
  Move in the vectorized engine (ROADMAP item 2) would start from it.
* :func:`route_relax` — the whole-grid Bellman-Ford relaxation of the
  paper's Route function (Figure 4) with the exact ``(dist, id)`` argmin
  tie-break of :func:`repro.core.route._route_step`.
* :func:`ne_prev_masks` — per-direction boolean masks from which each
  cell's ``NEPrev`` set is read off (Figure 5's first step).

The argmin trick: for any cell, its lattice neighbors sorted by
identifier ``(i, j)`` tuple order are always WEST ``(i-1, j)`` < SOUTH
``(i, j-1)`` < NORTH ``(i, j+1)`` < EAST ``(i+1, j)`` — the first
coordinate orders WEST before the ``i``-column before EAST, and within
the column the second coordinate orders SOUTH before NORTH. Keeping the
first of the four neighbor views that equals their minimum, in that
fixed order, therefore reproduces the smaller-identifier tie-break
without ever materializing per-cell id lists.

numpy is a *soft* dependency: importing this module without numpy
installed works (``HAVE_NUMPY`` is False) and only constructing the
array state raises, so the rest of the package — and the other two
engines — keep running on a bare Python install.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.cell import DIST_SENTINEL, dist_to_int
from repro.grid.topology import CellId

try:  # soft dependency: the object engines must not require numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

HAVE_NUMPY = np is not None

NO_CELL: int = -1
"""Sentinel for a bottom cell reference (``next``/``token``/``signal``)."""

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import System


def require_numpy() -> None:
    """Raise a pointed error when numpy is unavailable."""
    if not HAVE_NUMPY:
        raise RuntimeError(
            "the vectorized engine requires numpy, which is not installed; "
            "use engine='reference' or engine='incremental' instead"
        )


class GridArrays:
    """Flat array mirror of every cell's protocol variables.

    One slot per cell at flat index ``k = j * width + i`` — ascending
    ``k`` is exactly ``Grid.cells()`` row-major iteration order, so
    ``numpy.nonzero`` index order matches the reference engine's report
    ordering for free.
    """

    __slots__ = (
        "width",
        "height",
        "size",
        "dist",
        "next",
        "token",
        "signal",
        "failed",
        "member_count",
        "padded_dist",
        "neighbor_dists",
        "ids",
        "neighbor_ids",
    )

    def __init__(self, width: int, height: int):
        require_numpy()
        self.width = width
        self.height = height
        self.size = width * height
        self.dist = np.full(self.size, DIST_SENTINEL, dtype=np.int64)
        self.next = np.full(self.size, NO_CELL, dtype=np.int64)
        self.token = np.full(self.size, NO_CELL, dtype=np.int64)
        self.signal = np.full(self.size, NO_CELL, dtype=np.int64)
        self.failed = np.zeros(self.size, dtype=bool)
        self.member_count = np.zeros(self.size, dtype=np.int64)
        #: Route's work buffer: the effective dists inside a border of
        #: sentinels, so each neighbor's dist is a view of one buffer.
        #: Views and ids are ``(height, width)``, in ascending
        #: neighbor-id order (WEST, SOUTH, NORTH, EAST).
        self.padded_dist = np.full(
            (height + 2, width + 2), DIST_SENTINEL, dtype=np.int64
        )
        padded = self.padded_dist
        self.neighbor_dists = (
            padded[1:-1, :-2],
            padded[:-2, 1:-1],
            padded[2:, 1:-1],
            padded[1:-1, 2:],
        )
        self.ids = np.arange(self.size, dtype=np.int64).reshape(height, width)
        self.neighbor_ids = (
            self.ids - 1,
            self.ids - width,
            self.ids + width,
            self.ids + 1,
        )

    # -- index mapping --------------------------------------------------

    def flat(self, cid: CellId) -> int:
        """Cell identifier ``(i, j)`` to flat index ``k``."""
        return cid[1] * self.width + cid[0]

    def cell(self, k: int) -> CellId:
        """Flat index ``k`` back to the ``(i, j)`` identifier."""
        return (int(k) % self.width, int(k) // self.width)

    def ref(self, cid: Optional[CellId]) -> int:
        """A cell reference (or ``None``) to its flat encoding."""
        return NO_CELL if cid is None else self.flat(cid)

    # -- synchronization with the object state --------------------------

    def sync_cell(self, k: int, state) -> None:
        """Overwrite slot ``k`` from a :class:`CellState`."""
        self.dist[k] = dist_to_int(state.dist)
        self.next[k] = self.ref(state.next_id)
        self.token[k] = self.ref(state.token)
        self.signal[k] = self.ref(state.signal)
        self.failed[k] = state.failed
        self.member_count[k] = len(state.members)

    @classmethod
    def from_system(cls, system: "System") -> "GridArrays":
        """Pack a system's current cell state into fresh arrays."""
        arrays = cls(system.grid.width, system.grid.height)
        for cid, state in system.cells.items():
            arrays.sync_cell(arrays.flat(cid), state)
        return arrays


class EntityArrays:
    """Entities packed as parallel ``(cell, x, y)`` arrays.

    ``uid`` rides alongside so the packing round-trips to the object
    model. Rows are sorted by ``(cell, uid)`` — the deterministic order
    the per-cell object iteration uses, and so the order in which Move
    visits entities.
    """

    __slots__ = ("uid", "cell", "x", "y")

    def __init__(self, uid, cell, x, y):
        require_numpy()
        self.uid = uid
        self.cell = cell
        self.x = x
        self.y = y

    def __len__(self) -> int:
        return len(self.uid)

    @classmethod
    def from_system(cls, system: "System") -> "EntityArrays":
        """Pack every in-flight entity (row-major cell order, uid order
        within a cell)."""
        require_numpy()
        uids, cells, xs, ys = [], [], [], []
        width = system.grid.width
        for cid, state in system.cells.items():
            k = cid[1] * width + cid[0]
            for uid in sorted(state.members):
                entity = state.members[uid]
                uids.append(uid)
                cells.append(k)
                xs.append(entity.x)
                ys.append(entity.y)
        return cls(
            uid=np.asarray(uids, dtype=np.int64),
            cell=np.asarray(cells, dtype=np.int64),
            x=np.asarray(xs, dtype=np.float64),
            y=np.asarray(ys, dtype=np.float64),
        )

    def counts(self, size: int):
        """Per-cell member counts (length ``size``)."""
        return np.bincount(self.cell, minlength=size)


# ----------------------------------------------------------------------
# Vectorized phase kernels
# ----------------------------------------------------------------------


def route_relax(arrays: GridArrays) -> Tuple["np.ndarray", "np.ndarray"]:
    """One whole-grid Route relaxation: ``(new_dist, new_next)``.

    Semantics of :func:`repro.core.route._route_step` applied to every
    cell at once: each cell takes ``1 + min`` over its neighbors'
    *effective* dists (failed neighbors observed at the sentinel, off-grid
    ones read from the sentinel border of ``padded_dist``), and its
    ``next`` is the first neighbor at that minimum in ascending-identifier
    order, the ``(dist, id)`` argmin tie-break. The caller holds failed
    cells and the target, which Route never touches.
    """
    height, width = arrays.height, arrays.width
    interior = arrays.padded_dist[1:-1, 1:-1]
    np.copyto(interior, arrays.dist.reshape(height, width))
    np.putmask(interior, arrays.failed.reshape(height, width), DIST_SENTINEL)

    west, south, north, east = arrays.neighbor_dists
    best = np.minimum(west, south)
    np.minimum(best, north, out=best)
    np.minimum(best, east, out=best)
    # Write the ids at the minimum from the last neighbor to the first,
    # so the smallest id among the tied ones is left.
    new_next = arrays.neighbor_ids[3].copy()
    for view, ids in zip((north, south, west), arrays.neighbor_ids[2::-1]):
        np.copyto(new_next, ids, where=view == best)

    unreachable = best == DIST_SENTINEL
    best += 1
    np.putmask(best, unreachable, DIST_SENTINEL)
    np.putmask(new_next, unreachable, NO_CELL)
    return best.reshape(-1), new_next.reshape(-1)


def ne_prev_masks(arrays: GridArrays):
    """Per-direction inbound-pointer masks: the array form of ``NEPrev``.

    Returns one ``(4, size)`` boolean array whose rows are ``(west,
    south, north, east)`` — ascending neighbor-id order — where e.g.
    ``east[k]`` means cell ``k``'s EAST neighbor is visible (non-faulty,
    nonempty) and its ``next`` points at ``k``; column ``k`` holds cell
    ``k``'s four bits. A cell's ``NEPrev`` set is exactly the neighbors
    whose bit is set (Figure 5, step 1; failed cells never run Signal,
    so their own columns are simply unread).
    """
    height, width = arrays.height, arrays.width
    visible = ((~arrays.failed) & (arrays.member_count > 0)).reshape(height, width)
    next2d = arrays.next.reshape(height, width)
    ids = arrays.ids

    masks = np.zeros((4, height, width), dtype=bool)
    west, south, north, east = masks
    np.logical_and(visible[:, :-1], next2d[:, :-1] == ids[:, 1:], out=west[:, 1:])
    np.logical_and(visible[:-1, :], next2d[:-1, :] == ids[1:, :], out=south[1:, :])
    np.logical_and(visible[1:, :], next2d[1:, :] == ids[:-1, :], out=north[:-1, :])
    np.logical_and(visible[:, 1:], next2d[:, 1:] == ids[:, :-1], out=east[:, :-1])
    return masks.reshape(4, -1)
