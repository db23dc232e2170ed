"""Unit/integration tests for the simulator, runner, sweeps, and results."""

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.params import Parameters
from repro.metrics.latency import percentile
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.results import SimulationResult, SweepResult
from repro.sim.runner import run_config, run_replications
from repro.sim.seeding import derive_rng, derive_seed
from repro.sim.simulator import Simulator, build_simulation
from repro.sim.sweep import Sweep, sweep_grid

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
PATH = tuple((1, j) for j in range(8))


def corridor_config(**overrides) -> SimulationConfig:
    base = dict(grid_width=8, params=PARAMS, rounds=400, path=PATH, seed=3)
    base.update(overrides)
    return SimulationConfig(**base)


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_rng_streams_independent(self):
        a = derive_rng(1, "faults")
        b = derive_rng(1, "sources")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]


class TestBuildSimulation:
    def test_corridor_build(self):
        simulator = build_simulation(corridor_config())
        assert simulator.system.tid == (1, 7)
        assert (1, 0) in simulator.system.sources
        assert len(simulator.system.failed_cells()) == 64 - 8

    def test_explicit_build(self):
        config = SimulationConfig(
            grid_width=4,
            params=PARAMS,
            rounds=100,
            tid=(3, 3),
            sources=((0, 0),),
            source_policy="bernoulli:0.2",
        )
        simulator = build_simulation(config)
        assert simulator.system.failed_cells() == set()

    def test_fault_model_wired(self):
        config = corridor_config(
            fault=FaultSpec(pf=1.0, pr=0.0), fail_complement=False, rounds=5
        )
        simulator = build_simulation(config)
        simulator.step()
        # pf = 1: everything (including the target) crashes immediately.
        assert len(simulator.system.failed_cells()) == 64

    def test_protect_target(self):
        config = corridor_config(
            fault=FaultSpec(pf=1.0, pr=0.0, protect_target=True),
            fail_complement=False,
            rounds=5,
        )
        simulator = build_simulation(config)
        simulator.step()
        assert (1, 7) not in simulator.system.failed_cells()


class TestSimulatorRun:
    def test_run_produces_result(self):
        result = build_simulation(corridor_config()).run()
        assert result.rounds == 400
        assert result.consumed > 0
        assert result.throughput > 0
        assert result.monitor_violations == 0
        assert result.produced >= result.consumed
        assert result.in_flight == result.produced - result.consumed

    def test_determinism(self):
        a = build_simulation(corridor_config()).run()
        b = build_simulation(corridor_config()).run()
        assert a.consumed == b.consumed
        assert a.throughput == b.throughput

    def test_seed_changes_fault_runs(self):
        config = corridor_config(
            fault=FaultSpec(pf=0.05, pr=0.1), fail_complement=False, rounds=600
        )
        a = build_simulation(config).run()
        b = build_simulation(replace(config, seed=99)).run()
        assert a.total_failures != b.total_failures

    def test_warmup_affects_throughput(self):
        config = corridor_config(rounds=300, warmup=0)
        no_warmup = build_simulation(config).run()
        warm = build_simulation(replace(config, warmup=100)).run()
        # Dropping the empty pipeline-fill prefix raises the estimate.
        assert warm.throughput >= no_warmup.throughput

    def test_latency_reported(self):
        result = build_simulation(corridor_config()).run()
        assert result.mean_latency is not None
        assert result.mean_latency >= 7 / PARAMS.v  # at least path transit
        assert result.p95_latency >= result.mean_latency * 0.5

    def test_invalid_rounds(self):
        simulator = build_simulation(corridor_config())
        with pytest.raises(ValueError):
            Simulator(system=simulator.system, rounds=0)

    @staticmethod
    def faulting_run():
        """A warmed-up run with crashes and recoveries, stepped by hand so
        the test keeps every round's report."""
        config = SimulationConfig(
            grid_width=6,
            params=PARAMS,
            rounds=400,
            warmup=60,
            seed=5,
            tid=(5, 5),
            sources=((0, 0), (0, 5)),
            fault=FaultSpec(pf=0.01, pr=0.1, protect_target=True),
        )
        simulator = build_simulation(config)
        reports = [simulator.step() for _ in range(config.rounds)]
        return config, simulator, reports

    def test_summary_recomputed_from_round_reports(self):
        """Every summary field the meters feed equals a recomputation from
        the run's own round reports, on a faulting run with a warm-up."""
        config, simulator, reports = self.faulting_run()
        result = simulator.summarize()
        assert result.total_failures > 0

        births, latencies, entities, in_flight = {}, [], [], 0
        for report in reports:
            for entity in report.produced:
                births[entity.uid] = entity.birth_round
            for transfer in report.move.transfers:
                if transfer.consumed:
                    latencies.append(report.round_index - births[transfer.uid])
            in_flight += len(report.produced) - report.consumed_count
            entities.append(in_flight)
        latencies.sort()
        measured = reports[config.warmup :]

        assert result.rounds == len(reports)
        assert result.consumed == sum(r.consumed_count for r in reports)
        assert result.throughput == (
            sum(r.consumed_count for r in measured) / len(measured)
        )
        assert result.mean_latency == sum(latencies) / len(latencies)
        assert result.p95_latency == percentile(latencies, 0.95)
        assert result.mean_blocked_cells == (
            sum(len(r.signal.blocked) for r in reports) / len(reports)
        )
        assert result.mean_entities == sum(entities) / len(entities)

    def test_tracker_latencies_recomputed_from_round_reports(self):
        """The tracker's latency histogram, per-source consumed counts and
        in-flight records equal a per-entity replay of the round reports:
        a consumed entity's record is retired, an in-flight one is kept."""
        _, simulator, reports = self.faulting_run()
        births, sources, latencies = {}, {}, []
        by_source = Counter()
        for report in reports:
            for entity in report.produced:
                births[entity.uid] = entity.birth_round
            for transfer in report.move.transfers:
                sources.setdefault(transfer.uid, transfer.src)
                if transfer.consumed:
                    latencies.append(report.round_index - births.pop(transfer.uid))
                    by_source[sources[transfer.uid]] += 1
        tracker = simulator.tracker
        assert latencies
        assert tracker.latencies() == sorted(latencies)
        assert tracker.consumed_by_source == by_source
        assert set(tracker.records) == set(births)


class TestRunner:
    def test_run_config_attaches_extras(self):
        result = run_config(corridor_config(rounds=50), flavor="test")
        assert result.extras["flavor"] == "test"

    def test_replications_distinct_seeds(self):
        results = run_replications(
            corridor_config(
                rounds=300,
                fault=FaultSpec(pf=0.05, pr=0.1),
                fail_complement=False,
            ),
            replications=3,
        )
        assert len(results) == 3
        seeds = {r.config["seed"] for r in results}
        assert len(seeds) == 3
        assert [r.extras["replication"] for r in results] == [0, 1, 2]

    def test_replications_validation(self):
        with pytest.raises(ValueError):
            run_replications(corridor_config(), replications=0)


class TestSweep:
    def test_manual_sweep(self):
        sweep = Sweep(name="demo")
        sweep.add("a", corridor_config(rounds=50), tag=1)
        sweep.add("b", corridor_config(rounds=60), tag=2)
        result = sweep.run()
        assert result.name == "demo"
        assert [run.extras["tag"] for run in result.runs] == [1, 2]
        assert [run.rounds for run in result.runs] == [50, 60]

    def test_sweep_grid_cartesian(self):
        sweep = sweep_grid(
            "grid",
            corridor_config(rounds=50),
            axes={"rounds": [50, 60], "seed": [1, 2]},
        )
        assert len(sweep) == 4

    def test_sweep_grid_with_configure(self):
        def configure(base, assignment):
            return replace(
                base, params=Parameters(l=0.25, rs=assignment["rs"], v=0.2)
            )

        sweep = sweep_grid(
            "rs-sweep",
            corridor_config(rounds=50),
            axes={"rs": [0.05, 0.1]},
            configure=configure,
        )
        result = sweep.run()
        values = [run.config["params"]["rs"] for run in result.runs]
        assert values == [0.05, 0.1]


class TestResults:
    def test_json_roundtrip(self, tmp_path):
        sweep_result = SweepResult(name="demo")
        sweep_result.add(run_config(corridor_config(rounds=50), tag="x"))
        path = sweep_result.save_json(tmp_path / "out" / "demo.json")
        loaded = SweepResult.load_json(path)
        assert loaded.name == "demo"
        assert loaded.runs[0].consumed == sweep_result.runs[0].consumed
        assert loaded.runs[0].extras["tag"] == "x"

    def test_csv_export(self, tmp_path):
        sweep_result = SweepResult(name="demo")
        sweep_result.add(run_config(corridor_config(rounds=50), tag="x"))
        path = sweep_result.save_csv(tmp_path / "demo.csv")
        text = path.read_text()
        header = text.splitlines()[0]
        assert "throughput" in header
        assert "extra_tag" in header
        assert len(text.splitlines()) == 2

    def test_filter_by_extras(self):
        sweep_result = SweepResult(name="demo")
        sweep_result.add(run_config(corridor_config(rounds=50), v=1))
        sweep_result.add(run_config(corridor_config(rounds=50), v=2))
        assert len(sweep_result.filter(v=2)) == 1

    def test_flat_row_inlines_params(self):
        result = run_config(corridor_config(rounds=50))
        row = result.flat_row()
        assert row["l"] == 0.25 and row["rs"] == 0.05 and row["v"] == 0.2
        assert row["seed"] == 3
