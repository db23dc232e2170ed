"""The per-grid neighbor table behind ``Grid.neighbors``.

``Grid.neighbors`` fills a table on the grid instance the first time it
sees each cell. These tests pin that the table is invisible: results
equal a direct recomputation, callers own the lists they get, invalid
cells keep raising, and the grid's value semantics (``==``, ``hash``,
``repr``, pickling) see only its dimensions.
"""

import pickle

import pytest

from repro.grid.topology import DIRECTIONS, Grid, direction_between

GRIDS = [Grid(1), Grid(1, 7), Grid(5, 3), Grid(16)]


def recomputed(grid: Grid, cell):
    """The neighbor list straight from the definition, no table."""
    return [
        direction.step(cell)
        for direction in DIRECTIONS
        if grid.contains(direction.step(cell))
    ]


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
def test_table_equals_direct_recomputation(grid):
    for cell in grid.cells():
        first = grid.neighbors(cell)
        again = grid.neighbors(cell)
        assert first == again == recomputed(grid, cell)
        for nbr in first:
            assert direction_between(cell, nbr).step(cell) == nbr


def test_returned_list_is_the_callers():
    grid = Grid(4)
    expected = recomputed(grid, (1, 1))
    mine = grid.neighbors((1, 1))
    mine.append((3, 3))
    mine.remove((2, 1))
    assert grid.neighbors((1, 1)) == expected
    assert [(1, 1)] + grid.neighbors((1, 1)) == [(1, 1)] + expected


@pytest.mark.parametrize("cell", [(5, 0), (-1, 2), (0, 3)])
def test_out_of_grid_cell_raises_every_time(cell):
    grid = Grid(5, 3)
    for _ in range(3):
        with pytest.raises(ValueError, match="outside 5x3 grid"):
            grid.neighbors(cell)
    assert grid.neighbors((4, 2)) == recomputed(grid, (4, 2))


@pytest.mark.parametrize("grid_args", [(1,), (1, 7), (5, 3), (16,)], ids=str)
def test_value_semantics_unchanged_after_memoizing(grid_args):
    used = Grid(*grid_args)
    for cell in used.cells():
        used.neighbors(cell)
    fresh = Grid(*grid_args)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(used))
    assert restored == used and hash(restored) == hash(used)
    assert repr(restored) == repr(used)
    for cell in restored.cells():
        assert restored.neighbors(cell) == recomputed(restored, cell)
