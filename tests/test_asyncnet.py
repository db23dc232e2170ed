"""Tests for the asynchronous realization: delay models, and the timed
engine's equivalence/degradation properties."""

import random
from dataclasses import replace

import pytest

from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction, Grid
from repro.monitors.safety import check_safe
from repro.netsim.delay import FixedDelay, HeavyTailDelay, UniformDelay
from repro.netsim.engine import TimedEngine
from repro.netsim.message import RouteAdvert
from repro.sim.simulator import build_simulation
from repro.testing.differential import canonical_report, canonical_state, random_config

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
PATH = straight_path((1, 0), Direction.NORTH, 8)


class TestDelayModels:
    def test_fixed(self):
        model = FixedDelay(0.3)
        message = RouteAdvert(src=(0, 0), dst=(0, 1), dist=None)
        assert model.sample(message, random.Random(0)) == 0.3
        assert model.bound == 0.3

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedDelay(-0.1)

    def test_uniform_within_bounds(self):
        model = UniformDelay(0.1, 0.9)
        rng = random.Random(0)
        message = RouteAdvert(src=(0, 0), dst=(0, 1), dist=None)
        samples = [model.sample(message, rng) for _ in range(200)]
        assert all(0.1 <= s <= 0.9 for s in samples)
        assert model.bound == 0.9

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformDelay(0.5, 0.1)

    def test_heavy_tail_exceeds_nominal_bound(self):
        model = HeavyTailDelay(0.1, 0.9, tail_p=0.5, tail_factor=10)
        rng = random.Random(0)
        message = RouteAdvert(src=(0, 0), dst=(0, 1), dist=None)
        samples = [model.sample(message, rng) for _ in range(100)]
        assert any(s > model.bound for s in samples)


def build_async(delay_model, seed=0) -> TimedEngine:
    system = System(
        grid=Grid(8),
        params=PARAMS,
        tid=PATH.target,
        sources={PATH.source: EagerSource()},
        rng=random.Random(seed),
    )
    for cid in Grid(8).cells():
        if cid not in PATH:
            system.fail(cid)
    return TimedEngine(
        system, delay_model=delay_model, delay_rng=random.Random(seed + 1)
    )


def run(engine: TimedEngine, rounds: int) -> list:
    return [engine.step() for _ in range(rounds)]


def build_sync() -> System:
    system = System(
        grid=Grid(8),
        params=PARAMS,
        tid=PATH.target,
        sources={PATH.source: EagerSource()},
        rng=random.Random(0),
    )
    for cid in Grid(8).cells():
        if cid not in PATH:
            system.fail(cid)
    return system


def fingerprint(cells) -> dict:
    return {
        cid: (
            state.failed,
            state.dist,
            state.next_id,
            state.token,
            state.signal,
            tuple(
                (uid, round(e.x, 9), round(e.y, 9))
                for uid, e in sorted(state.members.items())
            ),
        )
        for cid, state in cells.items()
    }


class TestBoundedDelayEquivalence:
    @pytest.mark.parametrize(
        "delay_model",
        [FixedDelay(0.5), UniformDelay(0.0, 0.99), UniformDelay(0.3, 0.7)],
        ids=["fixed", "full-jitter", "mid-jitter"],
    )
    def test_lockstep_with_synchronous_model(self, delay_model):
        """Delays <= period: the asynchronous execution equals the
        synchronous one state-for-state, jitter and reordering included."""
        asynchronous = build_async(delay_model)
        synchronous = build_sync()
        for round_index in range(250):
            asynchronous.step()
            synchronous.update()
            assert fingerprint(asynchronous.system.cells) == fingerprint(
                synchronous.cells
            ), f"diverged at round {round_index}"
        assert asynchronous.late_adverts == 0

    def test_lockstep_on_turning_path_with_faults(self):
        path = turns_path((0, 0), 8, 2)

        def build():
            system = System(
                grid=Grid(8),
                params=PARAMS,
                tid=path.target,
                sources={path.source: EagerSource()},
                rng=random.Random(0),
            )
            for cid in Grid(8).cells():
                if cid not in path:
                    system.fail(cid)
            return system

        asynchronous = TimedEngine(
            build(),
            delay_model=UniformDelay(0.1, 0.9),
            delay_rng=random.Random(9),
        )
        synchronous = build()
        plan = {40: ("fail", path.cells[4]), 120: ("recover", path.cells[4])}
        for round_index in range(300):
            if round_index in plan:
                kind, cell = plan[round_index]
                getattr(asynchronous.system, kind)(cell)
                getattr(synchronous, kind)(cell)
            asynchronous.step()
            synchronous.update()
            assert fingerprint(asynchronous.system.cells) == fingerprint(
                synchronous.cells
            ), f"diverged at round {round_index}"


class TestReportsMatchReference:
    @pytest.mark.parametrize("jitter", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(26))
    def test_faulting_matrix(self, seed, jitter):
        """Delays within the period: every round's report — Route
        changes, Signal decisions, transfers in send order — and state
        equal the reference's, under fail/recover churn."""
        config = random_config(seed, faulting=True)
        reference = build_simulation(config, engine="reference")
        timed = build_simulation(replace(config, engine="timed", jitter=jitter))
        for round_index in range(config.rounds):
            expected = canonical_report(reference.step())
            assert canonical_report(timed.step()) == expected, round_index
            assert canonical_state(timed.system) == canonical_state(
                reference.system
            ), round_index


class TestPeriodBoundary:
    """The bisimulation premise at its exact edge: ``latency == period``
    keeps the timed execution state-identical to the synchronous model;
    one tick past the period, every advert is stale and is discarded
    (read conservatively) rather than applied late."""

    def test_latency_exactly_one_period_is_bisimilar(self):
        """``FixedDelay(period)``: adverts land exactly on the round
        boundary and still count — equality is inside the bound."""
        asynchronous = build_async(FixedDelay(1.0))
        synchronous = build_sync()
        for round_index in range(250):
            asynchronous.step()
            synchronous.update()
            assert fingerprint(asynchronous.system.cells) == fingerprint(
                synchronous.cells
            ), f"diverged at round {round_index}"
        assert asynchronous.late_adverts == 0

    def test_one_tick_past_the_period_discards_adverts(self):
        """``FixedDelay(period + epsilon)``: every advert misses its round
        and is dropped as stale — counted, never applied."""
        asynchronous = build_async(FixedDelay(1.0 + 1e-6))
        for _ in range(100):
            asynchronous.step()
            system = asynchronous.system
            assert check_safe(system) == []
            assert (
                system.total_produced
                == system.total_consumed + system.entity_count()
            )
        assert asynchronous.late_adverts > 0

    def test_jitter_hugging_the_boundary_is_bisimilar(self):
        """``Uniform(0.9, 1.0)``: jittery but bounded by the period —
        still state-identical, still zero stale adverts."""
        asynchronous = build_async(UniformDelay(0.9, 1.0))
        synchronous = build_sync()
        for round_index in range(250):
            asynchronous.step()
            synchronous.update()
            assert fingerprint(asynchronous.system.cells) == fingerprint(
                synchronous.cells
            ), f"diverged at round {round_index}"
        assert asynchronous.late_adverts == 0

    def test_jitter_straddling_the_boundary_degrades_safely(self):
        """``Uniform(0.5, 1.5)``: samples beyond the period are stale and
        discarded — safety and conservation hold, late adverts count up."""
        asynchronous = build_async(UniformDelay(0.5, 1.5))
        for _ in range(200):
            asynchronous.step()
            system = asynchronous.system
            assert check_safe(system) == []
            assert (
                system.total_produced
                == system.total_consumed + system.entity_count()
            )
        assert asynchronous.late_adverts > 0


class TestDelayBoundViolations:
    def test_late_adverts_detected_and_dropped(self):
        model = HeavyTailDelay(0.2, 0.9, tail_p=0.1, tail_factor=4)
        engine = build_async(model)
        run(engine, 300)
        assert engine.late_adverts > 0

    def test_safety_survives_bound_violations(self):
        """Tail latencies beyond the engineered bound degrade throughput,
        never separation (late adverts read conservatively)."""
        model = HeavyTailDelay(0.2, 0.9, tail_p=0.2, tail_factor=6)
        engine = build_async(model)
        system = engine.system
        for _ in range(400):
            engine.step()
            assert check_safe(system) == []
            assert (
                system.total_produced
                == system.total_consumed + system.entity_count()
            )

    def test_throughput_degrades_with_tail_probability(self):
        results = []
        for tail_p in (0.0, 0.2, 0.5):
            model = HeavyTailDelay(0.2, 0.9, tail_p=tail_p, tail_factor=6)
            consumed = sum(r.consumed_count for r in run(build_async(model), 500))
            results.append(consumed)
        assert results[0] > results[1] > results[2]

    def test_still_delivers_under_moderate_tails(self):
        model = HeavyTailDelay(0.2, 0.9, tail_p=0.1, tail_factor=4)
        consumed = sum(r.consumed_count for r in run(build_async(model), 600))
        assert consumed > 0
