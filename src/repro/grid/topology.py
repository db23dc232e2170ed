"""Cell lattice topology.

The system consists of ``width x height`` unit-square cells; cell
``<i, j>`` occupies the square with bottom-left corner ``(i, j)``.
Cells ``<m, n>`` and ``<i, j>`` are neighbors when
``|i - m| + |j - n| = 1`` (4-neighborhood). The paper uses square
``N x N`` grids; rectangular grids are supported because the corridor
workloads and the 3-D extension both want them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Tuple

CellId = Tuple[int, int]
"""A cell identifier ``<i, j>``: grid column ``i``, grid row ``j``."""


class Direction(Enum):
    """The four lattice directions, as unit steps in identifier space.

    ``di`` and ``dj`` are plain member attributes, set once when the
    class is built, so the Move kernel reads them without a property
    call.
    """

    EAST = (1, 0)
    WEST = (-1, 0)
    NORTH = (0, 1)
    SOUTH = (0, -1)

    def __init__(self, di: int, dj: int):
        self.di = di
        self.dj = dj

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITES[self]

    @property
    def axis(self) -> str:
        """``"x"`` for east/west, ``"y"`` for north/south."""
        return "x" if self.dj == 0 else "y"

    def step(self, cell: CellId) -> CellId:
        """The identifier one step from ``cell`` in this direction."""
        return (cell[0] + self.di, cell[1] + self.dj)


_OPPOSITES = {
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
}

DIRECTIONS: Tuple[Direction, ...] = (
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)


def manhattan_distance(a: CellId, b: CellId) -> int:
    """L1 distance between two cell identifiers."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


_BY_DELTA = {direction.value: direction for direction in DIRECTIONS}


def direction_between(src: CellId, dst: CellId) -> Direction:
    """The direction from ``src`` to an *adjacent* cell ``dst``.

    Raises ``ValueError`` when the cells are not lattice neighbors.
    """
    try:
        return _BY_DELTA[(dst[0] - src[0], dst[1] - src[1])]
    except KeyError:
        raise ValueError(f"cells {src} and {dst} are not neighbors") from None


@dataclass(frozen=True)
class Grid:
    """A finite ``width x height`` lattice of unit cells.

    ``Grid(n)`` builds the paper's ``n x n`` instance. Identifiers range
    over ``[0, width) x [0, height)``.

    Each instance memoizes its neighbor lists (:meth:`neighbors`,
    :meth:`neighbors_by_id`), so the tables live and die with the grid;
    they are not fields, so equality, hashing, ``repr`` and pickling see
    only the dimensions.
    """

    width: int
    height: Optional[int] = None

    def __post_init__(self) -> None:
        if self.height is None:
            object.__setattr__(self, "height", self.width)
        if self.width < 1 or self.height < 1:  # type: ignore[operator]
            raise ValueError(
                f"grid dimensions must be positive, got {self.width}x{self.height}"
            )
        object.__setattr__(self, "_neighbor_table", {})
        object.__setattr__(self, "_by_id_table", {})

    def __reduce__(self):
        # Rebuild from the dimensions: the memo tables are not pickled.
        return (type(self), (self.width, self.height))

    @property
    def size(self) -> int:
        """Total number of cells."""
        assert self.height is not None
        return self.width * self.height

    def contains(self, cell: CellId) -> bool:
        """True when ``cell`` is a valid identifier for this grid."""
        i, j = cell
        assert self.height is not None
        return 0 <= i < self.width and 0 <= j < self.height

    def require(self, cell: CellId) -> CellId:
        """Return ``cell`` if valid, else raise ``ValueError``."""
        if not self.contains(cell):
            raise ValueError(f"cell {cell} outside {self.width}x{self.height} grid")
        return cell

    def cells(self) -> Iterator[CellId]:
        """All identifiers in row-major order (column fastest)."""
        assert self.height is not None
        for j in range(self.height):
            for i in range(self.width):
                yield (i, j)

    def neighbors(self, cell: CellId) -> List[CellId]:
        """The in-grid lattice neighbors of ``cell``, in a fixed order.

        Returns a fresh list each call (callers may extend it); the
        neighbors themselves are computed once per cell and grid.
        """
        table = self._neighbor_table  # type: ignore[attr-defined]
        found = table.get(cell)
        if found is None:
            self.require(cell)
            found = table[cell] = tuple(
                moved
                for direction in DIRECTIONS
                if self.contains(moved := direction.step(cell))
            )
        return list(found)

    def neighbors_by_id(self, cell: CellId) -> Tuple[CellId, ...]:
        """The in-grid neighbors of ``cell`` in ascending identifier
        order (WEST, SOUTH, NORTH, EAST), as one shared tuple per cell.

        The per-cell kernels read this: a scan with a strict ``<`` over
        it keeps the first, smallest-identifier candidate of a tie.
        """
        table = self._by_id_table  # type: ignore[attr-defined]
        found = table.get(cell)
        if found is None:
            found = table[cell] = tuple(sorted(self.neighbors(cell)))
        return found

    def are_neighbors(self, a: CellId, b: CellId) -> bool:
        """True when both cells are in the grid and L1-adjacent."""
        return self.contains(a) and self.contains(b) and manhattan_distance(a, b) == 1

    def boundary_cells(self) -> Iterator[CellId]:
        """Cells on the outer rim of the grid."""
        assert self.height is not None
        for cell in self.cells():
            i, j = cell
            if i in (0, self.width - 1) or j in (0, self.height - 1):
                yield cell

    def cell_origin(self, cell: CellId) -> Tuple[float, float]:
        """Bottom-left corner of ``cell`` in the Euclidean plane."""
        self.require(cell)
        return (float(cell[0]), float(cell[1]))
