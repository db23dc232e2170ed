"""Engine-differential coverage for the generalized systems.

The incremental engine is proven observationally identical to the
reference engine on *core* configs (``tests/test_engine_differential.py``).
This module extends the net to the generalizations: workloads that
``multiflow/system.py`` (restricted to a single commodity) and
``extensions/grid3d.py`` (restricted to a flat slab) model must agree —
round-for-round, on consumption — with the core system under *both*
engines, and the two engines must stay in full lockstep on those same
configs. Any divergence is a bug in one of three independently written
implementations; the triangle pins down which.

Production must wait for a route to the target: the core sources (and
the 3-D extension) wait for ``next`` to be set, and ``TestProduceGate``
holds the multi-commodity sources to the same rule.
"""

import random
from typing import List

from repro.core.params import Parameters
from repro.extensions.grid3d import Grid3D, System3D, check_safe_3d
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction, Grid
from repro.monitors.safety import check_safe
from repro.multiflow.commodities import Commodity
from repro.multiflow.system import MultiCommoditySystem
from repro.sim.config import SimulationConfig
from repro.sim.simulator import build_simulation
from repro.testing.differential import run_lockstep

L, RS, V = 0.25, 0.05, 0.2
PARAMS = Parameters(l=L, rs=RS, v=V)


def corridor_config(path_cells, rounds: int) -> SimulationConfig:
    return SimulationConfig(
        grid_width=8,
        params=PARAMS,
        rounds=rounds,
        path=tuple(path_cells),
        seed=0,
        fail_complement=True,
    )


def consumed_core(config: SimulationConfig, engine: str) -> List[int]:
    simulator = build_simulation(config, engine=engine)
    return [simulator.step().consumed_count for _ in range(config.rounds)]


def single_commodity_corridor(path_cells) -> MultiCommoditySystem:
    """One commodity along ``path_cells``, every other cell failed."""
    grid = Grid(8)
    system = MultiCommoditySystem(
        grid,
        PARAMS,
        (Commodity(name="main", target=path_cells[-1], sources=(path_cells[0],)),),
        rng=random.Random(0),
    )
    on_path = set(path_cells)
    for cid in grid.cells():
        if cid not in on_path:
            system.fail(cid)
    return system


def consumed_multiflow(path_cells, rounds: int) -> List[int]:
    system = single_commodity_corridor(path_cells)
    sequence = [system.update().consumed_count for _ in range(rounds)]
    assert check_safe(system) == []
    return sequence


def consumed_3d(path_cells_3d, rounds: int, grid: Grid3D) -> List[int]:
    system = System3D(
        grid=grid,
        l=L,
        rs=RS,
        v=V,
        tid=path_cells_3d[-1],
        sources=(path_cells_3d[0],),
        rng=random.Random(0),
    )
    on_path = set(path_cells_3d)
    for cid in grid.cells():
        if cid not in on_path:
            system.fail(cid)
    sequence = [system.update() for _ in range(rounds)]
    assert check_safe_3d(system) == []
    return sequence


class TestMultiflowDifferential:
    """Single-commodity multiflow == core System, under both engines."""

    def check_triangle(self, path_cells, rounds: int) -> None:
        config = corridor_config(path_cells, rounds)
        run_lockstep(config)  # engines agree on full state, per round
        reference = consumed_core(config, "reference")
        incremental = consumed_core(config, "incremental")
        multi = consumed_multiflow(path_cells, rounds)
        assert reference == incremental
        assert reference == multi

    def test_straight_corridor(self):
        self.check_triangle(straight_path((1, 0), Direction.NORTH, 8).cells, 300)

    def test_turning_corridor(self):
        self.check_triangle(turns_path((0, 0), 8, 2).cells, 400)

    def test_max_turns_staircase(self):
        self.check_triangle(turns_path((0, 0), 8, 6).cells, 400)


class TestGrid3DDifferential:
    """Flat-slab 3-D == core System, under both engines."""

    def check_triangle(self, path_2d, rounds: int) -> None:
        config = corridor_config(path_2d, rounds)
        run_lockstep(config)
        reference = consumed_core(config, "reference")
        incremental = consumed_core(config, "incremental")
        path_3d = [(i, 0, j) for i, j in path_2d]
        flat = consumed_3d(path_3d, rounds, Grid3D(8, 1, 8))
        assert reference == incremental
        assert reference == flat

    def test_straight_corridor(self):
        self.check_triangle(straight_path((1, 0), Direction.NORTH, 8).cells, 300)

    def test_turning_corridor(self):
        self.check_triangle(turns_path((0, 0), 8, 3).cells, 400)


class TestProduceGate:
    """Production waits for a route to exist."""

    def test_multiflow_waits_for_route(self):
        """No entity may appear before dist propagates to the source.

        On a length-8 corridor the source learns a route in the Route
        phase of round 6 (seven hops from the target), and produces at
        the end of that round.
        """
        path = straight_path((1, 0), Direction.NORTH, 8).cells
        system = single_commodity_corridor(path)
        first = next(
            report.round_index
            for report in system.run(13)
            if report.produced
        )
        assert first == 6
