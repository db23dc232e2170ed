"""Unit and integration tests for the composed System automaton."""

import math
import random

import pytest

from repro.baselines import CentralizedSystem, CoordinatorSpec, UnsafeSystem
from repro.core.cell import INFINITY
from repro.core.params import Parameters
from repro.core.policies import RandomTokenPolicy
from repro.core.sources import CappedSource, EagerSource
from repro.core.system import System, build_corridor_system
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction, Grid
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.engine import ENGINES
from repro.sim.simulator import build_simulation
from repro.testing.differential import random_multiflow_config

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)

#: A churned open grid: every realization below runs it (or, for the
#: multi-commodity systems, a randomized multi-commodity config).
CHURNED = SimulationConfig(
    grid_width=4,
    params=PARAMS,
    rounds=40,
    tid=(3, 3),
    sources=((0, 0),),
    fault=FaultSpec(pf=0.05, pr=0.3, protect_target=True),
    seed=2,
    shards=2,
)
OBSERVED_ROUNDS = 40


def _simulated(engine, config=CHURNED):
    def build():
        if engine == "vectorized":
            pytest.importorskip("numpy")
        sim = build_simulation(config, engine=engine)
        return sim.system, sim.step, sim.engine.close

    return build


def _updated(system_class, **kwargs):
    def build():
        system = system_class(
            grid=Grid(4),
            params=PARAMS,
            tid=(3, 3),
            sources={(0, 0): EagerSource()},
            **kwargs,
        )
        return system, system.update, lambda: None

    return build


#: Every realization of the round: name -> () -> (system, step, close).
REALIZATIONS = {
    **{f"system-{name}": _simulated(name) for name in ENGINES},
    **{
        f"multiflow-{name}": _simulated(name, random_multiflow_config(1))
        for name in ("reference", "incremental")
    },
    "unsafe": _updated(UnsafeSystem),
    "centralized-up": _updated(
        CentralizedSystem, coordinator=CoordinatorSpec(period=3)
    ),
    "centralized-down": _updated(
        CentralizedSystem, coordinator=CoordinatorSpec(pf=1.0, pr=0.0)
    ),
}


class TestConstruction:
    def test_initial_state(self):
        system = System(grid=Grid(3), params=PARAMS, tid=(2, 2))
        assert system.cells[(2, 2)].dist == 0.0
        assert all(
            math.isinf(state.dist)
            for cid, state in system.cells.items()
            if cid != (2, 2)
        )
        assert system.entity_count() == 0
        assert system.round_index == 0

    def test_target_must_be_in_grid(self):
        with pytest.raises(ValueError):
            System(grid=Grid(3), params=PARAMS, tid=(5, 5))

    def test_target_cannot_be_source(self):
        with pytest.raises(ValueError):
            System(
                grid=Grid(3),
                params=PARAMS,
                tid=(0, 0),
                sources={(0, 0): EagerSource()},
            )


class TestFailRecover:
    def test_fail_effect(self):
        system = System(grid=Grid(3), params=PARAMS, tid=(2, 2))
        system.fail((1, 1))
        state = system.cells[(1, 1)]
        assert state.failed and math.isinf(state.dist)
        assert system.failed_cells() == {(1, 1)}
        assert (1, 1) not in system.non_faulty_cells()

    def test_fail_idempotent(self):
        system = System(grid=Grid(3), params=PARAMS, tid=(2, 2))
        system.fail((1, 1))
        system.fail((1, 1))
        assert system.failed_cells() == {(1, 1)}

    def test_recover_noop_on_live_cell(self):
        system = System(grid=Grid(3), params=PARAMS, tid=(2, 2))
        system.update()
        dist_before = system.cells[(2, 1)].dist
        system.recover((2, 1))
        assert system.cells[(2, 1)].dist == dist_before

    def test_target_recovery_restores_dist(self):
        system = System(grid=Grid(3), params=PARAMS, tid=(2, 2))
        system.fail((2, 2))
        system.recover((2, 2))
        assert system.cells[(2, 2)].dist == 0.0


class TestPathDistance:
    def test_matches_manhattan_on_clear_grid(self):
        system = System(grid=Grid(4), params=PARAMS, tid=(1, 1))
        rho = system.path_distance()
        for (i, j), value in rho.items():
            assert value == abs(i - 1) + abs(j - 1)

    def test_routes_around_failures(self):
        system = System(grid=Grid(3), params=PARAMS, tid=(0, 0))
        system.fail((1, 0))
        rho = system.path_distance()
        assert rho[(2, 0)] == 4.0
        assert math.isinf(rho[(1, 0)])

    def test_disconnection(self):
        system = System(grid=Grid(3), params=PARAMS, tid=(0, 0))
        system.fail((1, 2))
        system.fail((2, 1))
        assert (2, 2) not in system.target_connected()

    def test_failed_target_disconnects_all(self):
        system = System(grid=Grid(3), params=PARAMS, tid=(0, 0))
        system.fail((0, 0))
        assert system.target_connected() == set()


class TestProduction:
    def test_source_produces_one_per_round(self):
        system = System(
            grid=Grid(2, 1),
            params=PARAMS,
            tid=(1, 0),
            sources={(0, 0): CappedSource(EagerSource(), limit=1)},
            rng=random.Random(0),
        )
        report = system.update()
        assert len(report.produced) == 1
        assert system.total_produced == 1
        report = system.update()
        assert report.produced == []

    def test_failed_source_produces_nothing(self):
        system = System(
            grid=Grid(2, 1),
            params=PARAMS,
            tid=(1, 0),
            sources={(0, 0): EagerSource()},
            rng=random.Random(0),
        )
        system.fail((0, 0))
        report = system.update()
        assert report.produced == []

    def test_uids_unique_and_increasing(self):
        system = System(
            grid=Grid(2, 1),
            params=PARAMS,
            tid=(1, 0),
            sources={(0, 0): EagerSource()},
            rng=random.Random(0),
        )
        uids = []
        for _ in range(5):
            system.update()
            uids = [e.uid for e in system.all_entities()]
        assert len(uids) == len(set(uids))


class TestCorridorBuilder:
    def test_complement_failed(self):
        grid = Grid(4)
        path = straight_path((0, 0), Direction.NORTH, 4)
        system = build_corridor_system(grid, PARAMS, path.cells)
        assert system.failed_cells() == set(grid.cells()) - set(path.cells)
        assert system.tid == (0, 3)
        assert (0, 0) in system.sources

    def test_keep_complement_alive(self):
        grid = Grid(4)
        path = straight_path((0, 0), Direction.NORTH, 4)
        system = build_corridor_system(grid, PARAMS, path.cells, fail_complement=False)
        assert system.failed_cells() == set()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_corridor_system(Grid(4), PARAMS, [(0, 0)])


class TestEndToEnd:
    def test_entities_flow_to_target(self):
        grid = Grid(8)
        path = straight_path((1, 0), Direction.NORTH, 8)
        system = build_corridor_system(grid, PARAMS, path.cells)
        consumed = sum(system.update().consumed_count for _ in range(600))
        assert consumed > 0
        assert system.total_consumed == consumed
        assert system.total_produced >= consumed

    def test_turning_corridor_flows(self):
        grid = Grid(8)
        path = turns_path((0, 0), 8, 3)
        system = build_corridor_system(grid, PARAMS, path.cells)
        consumed = sum(system.update().consumed_count for _ in range(800))
        assert consumed > 0

    def test_round_counter_advances(self):
        system = System(grid=Grid(2, 1), params=PARAMS, tid=(1, 0))
        reports = system.run(5)
        assert [r.round_index for r in reports] == [0, 1, 2, 3, 4]
        assert system.round_index == 5

    @pytest.mark.parametrize("realization", sorted(REALIZATIONS))
    def test_phase_observer_sequence(self, realization):
        """Every system's ``update`` and every engine's ``step`` is one
        ``run_round``: each round fires the four phase notifications in
        order, advances ``round_index`` once, reports the index it ran
        at, and adds its consumptions to ``total_consumed``."""
        system, step, close = REALIZATIONS[realization]()
        phases = []
        chained = system.phase_observer

        def observe(name, observed):
            phases.append(name)
            if chained is not None:
                chained(name, observed)

        system.phase_observer = observe
        consumed = 0
        try:
            for _ in range(OBSERVED_ROUNDS):
                before, total = system.round_index, system.total_consumed
                phases.clear()
                report = step()
                assert phases == ["route", "signal", "move", "produce"]
                assert system.round_index == before + 1
                assert report.round_index == before
                assert system.total_consumed == total + len(report.move.consumed)
                consumed += len(report.move.consumed)
        finally:
            close()
        assert (consumed > 0) == (realization != "centralized-down")


class TestClone:
    def test_clone_divergence(self):
        grid = Grid(8)
        path = straight_path((1, 0), Direction.NORTH, 8)
        system = build_corridor_system(grid, PARAMS, path.cells)
        system.run(50)
        copy = system.clone()
        assert copy.entity_count() == system.entity_count()
        copy.run(50)
        # The original is untouched by the clone's progress.
        assert system.round_index == 50
        assert copy.round_index == 100

    def test_clone_replays_identically(self):
        grid = Grid(8)
        path = straight_path((1, 0), Direction.NORTH, 8)
        system = build_corridor_system(grid, PARAMS, path.cells)
        system.run(30)
        copy = system.clone()
        a = sum(system.update().consumed_count for _ in range(100))
        b = sum(copy.update().consumed_count for _ in range(100))
        assert a == b

    def test_clone_does_not_share_capped_source_state(self):
        # Regression: clone() used to alias the source policy objects, so
        # a clone's production advanced the original's CappedSource
        # counter (corrupting what-if probes and the DTS explorer).
        grid = Grid(8)
        path = straight_path((1, 0), Direction.NORTH, 8)
        source = CappedSource(EagerSource(), limit=10)
        system = build_corridor_system(grid, PARAMS, path.cells, source_policy=source)
        system.run(12)  # routing needs ~7 rounds before the source produces
        produced_before = source.produced
        assert produced_before > 0

        copy = system.clone()
        assert copy.sources[path.cells[0]] is not source
        copy.run(60)
        # The clone's production never touches the original's counter...
        assert source.produced == produced_before
        # ...and the original can still produce up to its own cap.
        system.run(60)
        assert system.total_produced == 10
        assert copy.total_produced == 10

    def test_clone_does_not_share_random_token_rng(self):
        # Regression: clone() aliased the token policy, so a clone's
        # random token draws advanced the original's RNG stream.
        def build(policy):
            grid = Grid(8)
            path = turns_path((0, 0), 8, 3)
            return build_corridor_system(
                grid, PARAMS, path.cells, token_policy=policy
            )

        policy = RandomTokenPolicy(random.Random(42))
        system = build(policy)
        system.run(20)
        state_before = policy._rng.getstate()

        copy = system.clone()
        assert copy.token_policy is not policy
        copy.run(50)
        assert policy._rng.getstate() == state_before

        # Original replays exactly like an undisturbed reference run.
        reference = build(RandomTokenPolicy(random.Random(42)))
        reference.run(20)
        a = sum(system.update().consumed_count for _ in range(100))
        b = sum(reference.update().consumed_count for _ in range(100))
        assert a == b
