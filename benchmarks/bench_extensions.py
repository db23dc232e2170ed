"""Benchmarks of the 3-D extension: shaft throughput and corner costs.

Not paper figures — the paper's conclusion only sketches this
generalization — but each assertion pins a behavior the extension
claims: 3-D shafts pipeline like 2-D corridors, and only corners that
reuse an axis pay Figure 8's turn penalty. Crossing multi-commodity
flows are benchmarked in ``bench_multiflow.py``.
"""

import random

from conftest import run_once

from repro.analysis.tables import format_table
from repro.extensions.grid3d import Grid3D, System3D, check_safe_3d

ROUNDS = 1500


def test_3d_shaft_throughput(benchmark):
    """A vertical 3-D shaft should pipeline like a 2-D corridor: same
    protocol, one more axis."""

    def run():
        system = System3D(
            grid=Grid3D(1, 1, 8),
            l=0.25,
            rs=0.05,
            v=0.2,
            tid=(0, 0, 7),
            sources=((0, 0, 0),),
            rng=random.Random(0),
        )
        consumed = sum(system.update() for _ in range(ROUNDS))
        assert check_safe_3d(system) == []
        return consumed / ROUNDS

    throughput = run_once(benchmark, run)
    print(f"\n3-D shaft throughput: {throughput:.4f}")
    assert throughput > 0.1


def test_3d_corner_axis_reuse(benchmark):
    """Figure 8's turn penalty generalizes to 3-D — but only for corners
    that *reuse* an axis.

    After a turn, entities travel with their entry-axis coordinate
    snapped to the entry face (l/2 inside). A second turn that exits
    along that previously snapped axis must traverse almost a full cell
    before crossing (~(1-l)/v rounds), keeping the corner's entry slab
    occupied and blocking its inbound — the 2-D slowdown, where two
    turns always share an axis. A 3-D double corner that uses three
    *distinct* axes exits along a coordinate still at the lane center
    (half the traverse), and costs nearly nothing. This effect is only
    expressible in three dimensions.
    """

    def run_route(grid: Grid3D, route) -> float:
        system = System3D(
            grid=grid, l=0.25, rs=0.05, v=0.2, tid=route[-1],
            sources=(route[0],), rng=random.Random(0),
        )
        alive = set(route)
        for cid in grid.cells():
            if cid not in alive:
                system.fail(cid)
        consumed = sum(system.update() for _ in range(ROUNDS))
        assert check_safe_3d(system) == []
        return consumed / ROUNDS

    def run():
        straight = run_route(
            Grid3D(1, 1, 7), [(0, 0, k) for k in range(7)]
        )
        # z -> y -> x: three distinct axes across the two corners.
        distinct = run_route(
            Grid3D(3, 3, 3),
            [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 2), (0, 2, 2),
             (1, 2, 2), (2, 2, 2)],
        )
        # z -> x -> z: the second corner exits along the snapped axis.
        reuse = run_route(
            Grid3D(3, 1, 5),
            [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 2), (2, 0, 2),
             (2, 0, 3), (2, 0, 4)],
        )
        return [
            ("straight shaft (0 turns)", straight),
            ("double corner, 3 distinct axes", distinct),
            ("double corner, axis reused (2-D-like)", reuse),
        ]

    rows = run_once(benchmark, run)
    print()
    print(format_table(["topology", "throughput"], rows))
    straight, distinct, reuse = (value for _, value in rows)
    assert reuse < 0.85 * straight  # the 2-D-style turn penalty
    assert distinct > 0.95 * straight  # axis-distinct corners are ~free

