"""The adversary subsystem: spec strings, compilation, new capabilities.

Covers the layers the fuzz campaigns build on: the spec-string grammar
and its canonical formatter, per-class compilation (deterministic,
well-formed schedules whose every fail recovers inside the horizon),
the ``System.relocate_target`` transition and its injector scheduling,
fault-model composition, partition walls, the ``timed`` engine adapter's
state-identity to the reference, and the stabilization sweep helper.
The fuzz-level integration (generator arm, oracles, shrinker) lives in
``tests/test_fuzz.py`` / ``tests/test_fuzz_mutations.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.scripts import (
    ADVERSARIES,
    CompiledAdversary,
    compile_adversary,
    format_adversary_spec,
    parse_adversary_spec,
)
from repro.core.params import Parameters
from repro.faults.injector import FaultInjector
from repro.faults.model import ComposedFaultModel, FaultDecision, NoFaults
from repro.faults.schedule import FaultEvent, ScriptedFaultModel, partition_events
from repro.fuzz.generator import generate_scenario
from repro.sim.config import SimulationConfig
from repro.sim.engine import ENGINES
from repro.sim.simulator import build_simulation
from repro.testing.differential import state_digest

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)

CLASS_NAMES = sorted(ADVERSARIES)


def _config(**overrides) -> SimulationConfig:
    fields = dict(
        grid_width=5,
        params=PARAMS,
        rounds=60,
        tid=(2, 2),
        sources=((0, 0),),
        monitors=False,
    )
    fields.update(overrides)
    return SimulationConfig(**fields)


class TestSpecStrings:
    def test_parse_bare_name(self):
        assert parse_adversary_spec("oscillator") == ("oscillator", {})

    def test_parse_params_int_then_float(self):
        name, params = parse_adversary_spec("regional_failure:waves=2,size=3")
        assert name == "regional_failure"
        assert params == {"waves": 2, "size": 3}
        assert all(isinstance(v, int) for v in params.values())

    def test_parse_rejects_empty_name(self):
        with pytest.raises(ValueError, match="empty adversary name"):
            parse_adversary_spec(":waves=2")

    def test_parse_rejects_malformed_pair(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_adversary_spec("oscillator:cycles")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="must be numeric"):
            parse_adversary_spec("oscillator:cycles=lots")

    def test_format_omits_defaults_and_sorts(self):
        script = ADVERSARIES["regional_failure"]
        assert format_adversary_spec("regional_failure", dict(script.defaults)) == (
            "regional_failure"
        )
        spec = format_adversary_spec(
            "regional_failure", {"waves": 1, "size": 3}
        )
        assert spec == "regional_failure:size=3,waves=1"

    def test_format_renders_integral_floats_as_ints(self):
        spec = format_adversary_spec("oscillator", {"cycles": 2.0})
        assert spec == "oscillator:cycles=2"

    def test_round_trip_is_canonical(self):
        for spec in ("partition_heal:axis=1", "rotating_target:moves=3"):
            name, params = parse_adversary_spec(spec)
            assert format_adversary_spec(name, params) == spec


class TestValidation:
    def test_unknown_class_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            _config(adversary="earthquake")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="does not take parameter"):
            _config(adversary="oscillator:waves=2")

    def test_rotating_target_needs_free_form_workload(self):
        with pytest.raises(ValueError):
            _config(
                adversary="rotating_target",
                tid=None,
                sources=(),
                path=((0, 0), (1, 0), (2, 0)),
            )

    def test_token_starvation_requires_roundrobin(self):
        with pytest.raises(ValueError):
            _config(adversary="token_starvation", token_policy="sticky")

    def test_async_jitter_requires_timed_engine(self):
        with pytest.raises(ValueError):
            _config(adversary="async_jitter", engine="reference")

    def test_jitter_requires_timed_engine(self):
        with pytest.raises(ValueError, match="timed"):
            _config(jitter=0.5)
        with pytest.raises(ValueError):
            _config(jitter=-0.1, engine="timed")

    def test_multiflow_rejects_adversary(self):
        from repro.multiflow.commodities import Commodity

        commodities = (
            Commodity("red", target=(0, 0), sources=((4, 4),)),
            Commodity("blue", target=(4, 0), sources=((0, 4),)),
        )
        with pytest.raises(ValueError, match="single-flow"):
            _config(
                adversary="oscillator",
                tid=None,
                sources=(),
                commodities=commodities,
            )


class TestCompilation:
    @pytest.mark.parametrize("name", CLASS_NAMES)
    def test_deterministic_and_well_formed(self, name):
        """Same config -> same schedule; every fail recovers in-horizon;
        the last perturbation leaves room for the oracle's watch."""
        for seed in range(4):
            scenario = generate_scenario(seed, adversary=name)
            config = scenario.config
            first = compile_adversary(config)
            second = compile_adversary(config)
            assert first == second
            assert isinstance(first, CompiledAdversary)
            assert first.last_perturbation_round < config.rounds
            open_fails = {}
            for event in first.events:
                assert 0 <= event.round_index < config.rounds
                if event.kind == "fail":
                    assert event.cell not in open_fails
                    open_fails[event.cell] = event.round_index
                else:
                    assert event.kind == "recover"
                    assert event.cell in open_fails
                    assert event.round_index > open_fails.pop(event.cell)
            assert not open_fails, f"{name} left cells failed: {open_fails}"

    def test_token_starvation_compiles_empty(self):
        scenario = generate_scenario(0, adversary="token_starvation")
        compiled = compile_adversary(scenario.config)
        assert compiled == CompiledAdversary()
        assert compiled.last_perturbation_round == -1

    def test_rotating_target_schedules_relocations(self):
        scenario = generate_scenario(0, adversary="rotating_target")
        compiled = compile_adversary(scenario.config)
        assert compiled.relocations
        assert list(compiled.relocations) == sorted(compiled.relocations)
        assert all(
            0 <= rnd < scenario.config.rounds for rnd, _ in compiled.relocations
        )


class TestRelocateTarget:
    def _system(self):
        return build_simulation(_config(rounds=30)).system

    def test_moves_routing_destination(self):
        system = self._system()
        old = system.tid
        events = []
        system.cell_observer = lambda event, cid: events.append((event, cid))
        system.relocate_target((4, 4))
        assert system.tid == (4, 4)
        assert system.cells[(4, 4)].dist == 0.0
        assert system.cells[old].next_id is None
        assert events == [("relocate", old), ("relocate", (4, 4))]

    def test_same_cell_is_a_noop(self):
        system = self._system()
        events = []
        system.cell_observer = lambda event, cid: events.append((event, cid))
        system.relocate_target(system.tid)
        assert events == []

    def test_rejects_source_and_failed_destinations(self):
        system = self._system()
        with pytest.raises(ValueError, match="source"):
            system.relocate_target((0, 0))
        system.fail((3, 3))
        with pytest.raises(ValueError, match="failed"):
            system.relocate_target((3, 3))

    def test_routing_restabilizes_after_relocation(self):
        from repro.monitors.progress import routing_matches_ground_truth

        sim = build_simulation(_config(rounds=40))
        for _ in range(15):
            sim.step()
        sim.system.relocate_target((4, 4))
        for _ in range(15):
            sim.step()
        assert routing_matches_ground_truth(sim.system)


class TestInjectorRelocations:
    def test_applied_at_the_scheduled_round(self):
        sim = build_simulation(_config(rounds=20))
        injector = FaultInjector(
            NoFaults(),
            rng=random.Random(0),
            relocations=[(5, (4, 4)), (2, (2, 4))],
        )
        sim.injector = injector
        seen = {}
        for round_index in range(8):
            sim.step()
            seen[round_index] = sim.system.tid
        assert seen[1] == (2, 2)
        assert seen[2] == (2, 4)
        assert seen[4] == (2, 4)
        assert seen[5] == (4, 4)
        assert seen[7] == (4, 4)

    def test_build_simulation_wires_rotating_target(self):
        scenario = generate_scenario(0, adversary="rotating_target")
        compiled = compile_adversary(scenario.config)
        sim = build_simulation(scenario.config)
        assert sim.injector.relocations == tuple(sorted(compiled.relocations))
        sim.run()
        assert sim.system.tid == compiled.relocations[-1][1]


class TestComposedFaultModel:
    def test_unions_decisions_in_order(self):
        a = ScriptedFaultModel([FaultEvent(0, (0, 0), "fail")])
        b = ScriptedFaultModel([FaultEvent(0, (1, 1), "fail")])
        model = ComposedFaultModel(models=(a, b))
        decision = model.decide(0, alive=[(0, 0), (1, 1)], failed=[], rng=None)
        assert decision.fail == {(0, 0), (1, 1)}
        assert decision.recover == frozenset()

    def test_fail_wins_over_recover(self):
        """When one model fails a cell another recovers, failing wins
        (the conservative reading: the cell stays down this round)."""
        failer = ScriptedFaultModel([FaultEvent(3, (2, 2), "fail")])
        healer = ScriptedFaultModel(
            [FaultEvent(0, (2, 2), "fail"), FaultEvent(3, (2, 2), "recover")]
        )
        model = ComposedFaultModel(models=(failer, healer))
        decision = model.decide(3, alive=[], failed=[(2, 2)], rng=None)
        assert decision.fail == {(2, 2)}
        assert decision.recover == frozenset()

    def test_quiet_when_all_models_quiet(self):
        model = ComposedFaultModel(models=(NoFaults(), NoFaults()))
        assert model.decide(0, alive=[(0, 0)], failed=[], rng=None).is_quiet


class TestPartitionEvents:
    def test_wall_fails_then_heals(self):
        wall = [(0, 2), (1, 2), (2, 2)]
        events = partition_events(wall, down_round=4, heal_round=9)
        fails = [e for e in events if e.kind == "fail"]
        heals = [e for e in events if e.kind == "recover"]
        assert {e.cell for e in fails} == set(wall)
        assert {e.cell for e in heals} == set(wall)
        assert all(e.round_index == 4 for e in fails)
        assert all(e.round_index == 9 for e in heals)

    def test_rejects_heal_before_down(self):
        with pytest.raises(ValueError):
            partition_events([(0, 0)], down_round=5, heal_round=5)

    def test_scripted_model_classmethod(self):
        model = ScriptedFaultModel.partition(
            [(1, 0), (1, 1)], down_round=2, heal_round=6
        )
        down = model.decide(2, alive=[(1, 0), (1, 1)], failed=[], rng=None)
        assert down.fail == {(1, 0), (1, 1)}
        heal = model.decide(6, alive=[], failed=[(1, 0), (1, 1)], rng=None)
        assert heal.recover == {(1, 0), (1, 1)}


class TestTimedEngine:
    def test_registered(self):
        assert "timed" in ENGINES
        assert ENGINES["timed"].name == "timed"

    @pytest.mark.parametrize("jitter", [0.0, 0.5, 1.0])
    def test_state_identical_to_reference(self, jitter):
        """The bisimulation theorem through the engine adapter: every
        round's full state digest matches the synchronous reference."""
        timed = build_simulation(
            _config(engine="timed", jitter=jitter, rounds=40)
        )
        reference = build_simulation(
            _config(rounds=40), engine="reference"
        )
        for round_index in range(40):
            timed.step()
            reference.step()
            assert state_digest(timed.system) == state_digest(
                reference.system
            ), f"diverged at round {round_index} (jitter={jitter})"
        assert timed.engine.late_adverts == 0

    def test_sees_injector_faults(self):
        """Fail/recover through the System mid-run stays bisimilar (the
        processes share the System's CellState objects)."""
        timed = build_simulation(_config(engine="timed", rounds=40))
        reference = build_simulation(_config(rounds=40), engine="reference")
        for round_index in range(40):
            if round_index == 10:
                timed.system.fail((2, 1))
                reference.system.fail((2, 1))
            if round_index == 25:
                timed.system.recover((2, 1))
                reference.system.recover((2, 1))
            timed.step()
            reference.step()
            assert state_digest(timed.system) == state_digest(reference.system)

    def test_fires_each_phase_once_per_round_in_order(self, monkeypatch):
        """``route``, ``signal``, ``move`` and ``produce`` fire once per
        round, in that order, so the monitors' Signal hook (predicate H,
        Lemma 4) runs and every phase gets its share of the timings."""
        from repro.monitors.recorder import MonitorSuite

        hook_rounds = []
        original = MonitorSuite._on_phase

        def spy(self, phase, system):
            if phase == "signal":
                hook_rounds.append(system.round_index)
            original(self, phase, system)

        monkeypatch.setattr(MonitorSuite, "_on_phase", spy)
        sim = build_simulation(
            _config(engine="timed", jitter=0.5, rounds=100, monitors=True)
        )
        fired = []
        chained = sim.system.phase_observer

        def record(phase, system):
            fired.append((system.round_index, phase))
            chained(phase, system)

        sim.system.phase_observer = record
        result = sim.run()
        phases = ("route", "signal", "move", "produce")
        assert fired == [(r, p) for r in range(100) for p in phases]
        assert hook_rounds == list(range(100))
        assert result.monitor_violations == 0
        assert all(result.phase_timings[p] > 0 for p in phases)


class TestStabilizationSweep:
    def test_rows_within_bound_on_clean_tree(self):
        from repro.adversary.sweep import stabilization_sweep

        rows = stabilization_sweep(
            classes=["oscillator", "regional_failure"], seeds=range(2)
        )
        assert len(rows) == 4
        for row in rows:
            assert row["within_bound"], row
            assert 0 <= row["stabilized_after"] <= row["bound"]

    def test_every_class_measurable(self):
        from repro.adversary.sweep import stabilization_sweep

        rows = stabilization_sweep(seeds=[1])
        assert [parse_adversary_spec(r["adversary"])[0] for r in rows] == (
            CLASS_NAMES
        )
        assert all(row["within_bound"] for row in rows)
