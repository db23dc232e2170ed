"""Tests for the unsafe (greedy) and centralized baselines."""

import random

import pytest

from repro.baselines.centralized import CentralizedSystem, CoordinatorSpec
from repro.baselines.unsafe import UnsafeSystem
from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.grid.paths import straight_path
from repro.grid.topology import Direction, Grid
from repro.monitors.recorder import MonitorSuite
from repro.sim.simulator import Simulator

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
PATH = straight_path((1, 0), Direction.NORTH, 8)


def make_corridor(cls, **kwargs):
    system = cls(
        grid=Grid(8),
        params=PARAMS,
        tid=PATH.target,
        sources={PATH.source: EagerSource()},
        rng=random.Random(0),
        **kwargs,
    )
    for cid in Grid(8).cells():
        if cid not in PATH:
            system.fail(cid)
    return system


class TestUnsafeBaseline:
    def test_delivers_entities(self):
        system = make_corridor(UnsafeSystem)
        consumed = sum(system.update().consumed_count for _ in range(400))
        assert consumed > 0

    def test_straight_corridor_accidentally_safe(self):
        """On a single straight corridor the greedy baseline happens to
        stay safe: velocity quantization keeps insertion gaps >= d and
        lockstep motion preserves them. This is why the violation tests
        below use merges and crashes — the scenarios Signal actually
        protects against."""
        system = make_corridor(UnsafeSystem)
        monitors = MonitorSuite(
            strict=False, check_h_predicate=False, check_lemma_4=False
        ).attach(system)
        for _ in range(400):
            report = system.update()
            monitors.after_round(system, report)
        assert monitors.violation_counts().get("Safe (Theorem 5)", 0) == 0

    def test_violates_safety_at_merge(self):
        """Without Signal, two branches transfer into the junction in the
        same round — separation breaks (impossible under the protocol,
        where signal grants a single neighbor). Needs d > 0.375, the
        offset between the junction's two entry points."""
        params = Parameters(l=0.2, rs=0.3, v=0.2)
        grid = Grid(5)
        alive = {(0, 2), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4)}
        system = UnsafeSystem(
            grid=grid,
            params=params,
            tid=(2, 4),
            sources={(0, 2): EagerSource(), (2, 0): EagerSource()},
            rng=random.Random(0),
        )
        for cid in grid.cells():
            if cid not in alive:
                system.fail(cid)
        monitors = MonitorSuite(
            strict=False, check_h_predicate=False, check_lemma_4=False
        ).attach(system)
        for _ in range(400):
            report = system.update()
            monitors.after_round(system, report)
        assert monitors.violation_counts().get("Safe (Theorem 5)", 0) > 0

    def test_violates_safety_behind_crash(self):
        """Without Signal, traffic piles into the cell stalled behind a
        crash: arrivals keep snapping onto the same entry edge."""
        system = make_corridor(UnsafeSystem)
        monitors = MonitorSuite(
            strict=False, check_h_predicate=False, check_lemma_4=False
        ).attach(system)
        for round_index in range(300):
            if round_index == 60:
                system.fail((1, 5))
            report = system.update()
            monitors.after_round(system, report)
        assert monitors.violation_counts().get("Safe (Theorem 5)", 0) > 0

    def test_outperforms_safe_protocol_on_raw_throughput(self):
        """Greedy movement never blocks, so it delivers at least as much —
        quantifying what the safety mechanism costs."""
        unsafe = make_corridor(UnsafeSystem)
        safe = make_corridor(System)
        unsafe_consumed = sum(unsafe.update().consumed_count for _ in range(800))
        safe_consumed = sum(safe.update().consumed_count for _ in range(800))
        assert unsafe_consumed >= safe_consumed

    def test_never_moves_into_failed_cell(self):
        """Even the greedy baseline respects crash masking: no entity is
        transferred into a failed cell after the crash."""
        system = make_corridor(UnsafeSystem)
        for _ in range(50):
            system.update()
        system.fail((1, 4))
        frozen = set(system.cells[(1, 4)].members)
        for _ in range(100):
            report = system.update()
            assert all(t.dst != (1, 4) for t in report.move.transfers)
        assert set(system.cells[(1, 4)].members) == frozen


class TestCentralizedBaseline:
    def test_reliable_coordinator_delivers(self):
        system = make_corridor(
            CentralizedSystem, coordinator=CoordinatorSpec(period=5, pf=0.0)
        )
        consumed = sum(system.update().consumed_count for _ in range(400))
        assert consumed > 0

    def test_is_safe(self):
        """The centralized baseline keeps the Signal mechanism: safe."""
        system = make_corridor(
            CentralizedSystem, coordinator=CoordinatorSpec(period=5, pf=0.0)
        )
        monitors = MonitorSuite().attach(system)
        simulator = Simulator(system=system, rounds=300, monitors=monitors)
        result = simulator.run()
        assert result.monitor_violations == 0
        assert result.consumed > 0

    def test_routing_instantly_correct_after_pulse(self):
        system = make_corridor(
            CentralizedSystem, coordinator=CoordinatorSpec(period=1, pf=0.0)
        )
        system.update()
        rho = system.path_distance()
        for cid, state in system.cells.items():
            if not state.failed:
                assert state.dist == rho[cid]

    def test_coordinator_outage_stalls_everything(self):
        system = make_corridor(
            CentralizedSystem, coordinator=CoordinatorSpec(period=5, pf=1.0, pr=0.0)
        )
        consumed = sum(system.update().consumed_count for _ in range(200))
        assert consumed == 0
        assert system.coordinator_outage_rounds == 200

    def test_outage_recovery_resumes(self):
        spec = CoordinatorSpec(period=5, pf=0.0, pr=1.0)
        system = make_corridor(CentralizedSystem, coordinator=spec)
        system.coordinator_up = False
        consumed = sum(system.update().consumed_count for _ in range(300))
        assert consumed > 0  # recovered on the first round (pr = 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CoordinatorSpec(period=0)
        with pytest.raises(ValueError):
            CoordinatorSpec(pf=2.0)


class TestEngineRefusal:
    """A baseline's protocol lives in its ``update``; every engine but
    ``reference`` drives the one-phase methods, which run the paper's
    protocol, so ``make_engine`` refuses them whether they are named
    by the argument or by ``REPRO_ENGINE``."""

    @pytest.mark.parametrize("engine", ["incremental", "vectorized", "timed", "sharded"])
    @pytest.mark.parametrize(
        "cls, kind",
        [
            (UnsafeSystem, "the greedy baseline"),
            (CentralizedSystem, "the centralized baseline"),
        ],
    )
    def test_only_the_reference_engine_runs_a_baseline(
        self, monkeypatch, cls, kind, engine
    ):
        refusal = rf"engine {engine!r} does not support {kind}; choose from \['reference'\]"
        with pytest.raises(ValueError, match=refusal):
            Simulator(make_corridor(cls), rounds=10, engine=engine)
        monkeypatch.setenv("REPRO_ENGINE", engine)
        with pytest.raises(ValueError, match=refusal):
            Simulator(make_corridor(cls), rounds=10)
        assert Simulator(make_corridor(cls), rounds=10, engine="reference").run()
