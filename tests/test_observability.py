"""Tests for the observability layer (``repro.obs``).

Covers the metrics registry, the event taxonomy and tracer sinks, the
simulator wiring (metrics and events derived from seeded runs), the
summary exporters and the ``report`` CLI error contract, the sweep
supervision counters, and — the load-bearing property — determinism:
identical seeded runs must produce *byte-identical* event trace files
and equal metric dictionaries, serially or across worker processes.
"""

import json
from pathlib import Path

import pytest

from repro.core.params import Parameters
from repro.faults.schedule import FaultEvent, ScriptedFaultModel
from repro.obs import (
    BLOCK_REASONS,
    EVENT_TYPES,
    METRIC_NAMES,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    ObservabilityConfig,
    ProtocolTracer,
    RingBufferSink,
    TRACE_SCHEMA,
    TraceSchemaError,
    load_events,
    make_event,
    render_report,
    save_summary_csv,
    save_summary_json,
    summarize_events,
)
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.simulator import build_simulation
from repro.sim.stepper import ResumableStepper
from repro.sim.supervisor import RetryPolicy, SweepSupervisor
from repro.sim.sweep import Sweep

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
PATH = tuple((1, j) for j in range(8))


def corridor_config(**overrides) -> SimulationConfig:
    base = dict(grid_width=8, params=PARAMS, rounds=120, path=PATH, seed=0)
    base.update(overrides)
    return SimulationConfig(**base)


def merge_config(**overrides) -> SimulationConfig:
    """Two sources feeding one target: exercises token rotation."""
    base = dict(
        grid_width=3,
        params=PARAMS,
        rounds=150,
        tid=(1, 1),
        sources=((0, 1), (2, 1)),
        seed=1,
    )
    base.update(overrides)
    return SimulationConfig(**base)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negatives(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_tracks_last_value(self):
        gauge = Gauge()
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram(buckets=(1, 10))
        for value in (0, 1, 5, 500):
            histogram.observe(value)
        serialized = histogram.to_value()
        assert serialized["buckets"] == {"<=1": 2, "<=10": 1, ">10": 1}
        assert serialized["count"] == 4
        assert serialized["min"] == 0 and serialized["max"] == 500
        assert serialized["mean"] == pytest.approx(506 / 4)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="sorted and distinct"):
            Histogram(buckets=(5, 1))
        with pytest.raises(ValueError, match="sorted and distinct"):
            Histogram(buckets=(1, 1, 2))

    def test_empty_histogram_has_no_extremes(self):
        histogram = Histogram()
        assert histogram.mean is None
        assert histogram.to_value()["min"] is None
        assert len(histogram.to_value()["buckets"]) == len(DEFAULT_BUCKETS) + 1

    def test_registry_identity_per_name_and_labels(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")
        assert registry.counter("a", cell="0,1") is not registry.counter("a")
        assert registry.counter("a", cell="0,1") is registry.counter("a", cell="0,1")

    def test_to_dict_is_sorted_and_flattens_labels(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc(2)
        registry.counter("mid", cell="1,0").inc(3)
        registry.gauge("g").set(9)
        data = registry.to_dict()
        assert list(data["counters"]) == ["a.first", "mid{cell=1,0}", "z.last"]
        assert data["counters"]["mid{cell=1,0}"] == 3
        assert data["gauges"] == {"g": 9}
        # Canonical: two equal registries dump to identical JSON.
        twin = MetricsRegistry()
        twin.counter("mid", cell="1,0").inc(3)
        twin.counter("a.first").inc(2)
        twin.counter("z.last").inc()
        twin.gauge("g").set(9)
        assert json.dumps(data, sort_keys=True) == json.dumps(
            twin.to_dict(), sort_keys=True
        )

    def test_base_names_collapse_labels(self):
        registry = MetricsRegistry()
        registry.counter("signal.granted.by_cell", cell="1,0").inc()
        registry.counter("signal.granted.by_cell", cell="1,1").inc()
        registry.histogram("route.stabilization_rounds").observe(3)
        assert registry.base_names() == {
            "signal.granted.by_cell": "counter",
            "route.stabilization_rounds": "histogram",
        }


# ----------------------------------------------------------------------
# Events and tracer
# ----------------------------------------------------------------------


class TestEventsAndTracer:
    def test_make_event_validates_type_and_fields(self):
        record = make_event("CellFailed", 7, {"cell": [1, 2]})
        assert record == {"round": 7, "type": "CellFailed", "cell": [1, 2]}
        with pytest.raises(ValueError, match="unregistered event type"):
            make_event("NotAThing", 0, {})
        with pytest.raises(ValueError, match="takes fields"):
            make_event("CellFailed", 0, {"cell": [1, 2], "extra": 1})
        with pytest.raises(ValueError, match="takes fields"):
            make_event("SignalGranted", 0, {"cell": [1, 2]})  # missing "to"

    def test_every_event_type_is_self_describing(self):
        for name, event_type in EVENT_TYPES.items():
            assert event_type.name == name
            assert event_type.fields, name
            assert event_type.description, name

    def test_block_reasons_registered(self):
        # The only reason the instrumentation currently emits.
        assert "gap" in BLOCK_REASONS

    def test_ring_buffer_evicts_oldest(self):
        sink = RingBufferSink(capacity=2)
        tracer = ProtocolTracer(sink)
        for rnd in range(3):
            tracer.emit("CellFailed", rnd, {"cell": [0, 0]})
        assert [event["round"] for event in sink.events()] == [1, 2]
        assert tracer.total_events == 3  # counts survive eviction
        assert tracer.counts == {"CellFailed": 3}
        with pytest.raises(ValueError, match="positive"):
            RingBufferSink(capacity=0)

    def test_jsonl_sink_writes_header_and_canonical_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tracer = ProtocolTracer(JsonlSink(path, fingerprint="cafe"), "cafe")
        tracer.emit("EntityConsumed", 3, {"uid": 9, "src": [1, 6]})
        tracer.close()
        tracer.close()  # idempotent
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "header": {
                "kind": "protocol-events",
                "schema": TRACE_SCHEMA,
                "config_fingerprint": "cafe",
            }
        }
        # Canonical serialization: sorted keys, compact separators.
        assert lines[1] == '{"round":3,"src":[1,6],"type":"EntityConsumed","uid":9}'


# ----------------------------------------------------------------------
# Simulator wiring
# ----------------------------------------------------------------------


class TestInstrumentation:
    def test_metrics_ride_on_the_result(self):
        result = build_simulation(
            corridor_config(), observability=ObservabilityConfig(metrics=True)
        ).run()
        counters = result.metrics["counters"]
        assert counters["source.produced"] == result.produced
        assert counters["move.consumed"] == result.consumed
        assert counters["signal.granted"] > 0
        assert counters["signal.blocked"] > 0
        assert counters["signal.blocked.by_cell{cell=1,1}"] > 0
        assert result.metrics["gauges"]["entities.in_flight"] == result.in_flight
        # Every emitted base name is in the documented catalog.
        for section in result.metrics.values():
            for flat_name in section:
                base = flat_name.split("{")[0]
                assert base in METRIC_NAMES, base

    def test_disabled_observability_is_absent(self):
        simulator = build_simulation(
            corridor_config(rounds=10), observability=ObservabilityConfig()
        )
        assert simulator.obs is None
        assert simulator.run().metrics is None

    def test_merge_topology_rotates_tokens(self):
        simulator = build_simulation(
            merge_config(),
            observability=ObservabilityConfig(metrics=True, trace_buffer=500),
        )
        result = simulator.run()
        assert result.metrics["counters"]["signal.token_rotations"] > 0
        assert simulator.obs.tracer.counts["TokenRotated"] > 0

    def test_scripted_fault_fills_stabilization_histogram(self):
        simulator = build_simulation(
            corridor_config(fail_complement=False),
            observability=ObservabilityConfig(metrics=True, trace_buffer=500),
        )
        simulator.injector.model = ScriptedFaultModel(
            [FaultEvent(20, (3, 3), "fail"), FaultEvent(40, (3, 3), "recover")]
        )
        result = simulator.run()
        histogram = result.metrics["histograms"]["route.stabilization_rounds"]
        assert histogram["count"] == 2  # one re-stabilization per disruption
        assert result.metrics["counters"]["faults.failed"] == 1
        assert result.metrics["counters"]["faults.recovered"] == 1
        counts = simulator.obs.tracer.counts
        assert counts["CellFailed"] == 1
        assert counts["CellRecovered"] == 1

    def test_trace_events_counter_matches_tracer(self, tmp_path):
        simulator = build_simulation(
            corridor_config(rounds=40),
            observability=ObservabilityConfig(
                metrics=True, trace_path=str(tmp_path / "events.jsonl")
            ),
        )
        result = simulator.run()
        assert (
            result.metrics["counters"]["trace.events"]
            == simulator.obs.tracer.total_events
        )
        # finalize() is idempotent: summarizing again must not double-count.
        assert (
            simulator.summarize().metrics["counters"]["trace.events"]
            == simulator.obs.tracer.total_events
        )

    @pytest.mark.parametrize("engine", ["reference", "incremental", "sharded"])
    def test_gauges_equal_the_whole_grid_counts(self, engine):
        """``entities.in_flight`` and ``cells.failed`` scan no cell, yet
        equal the grid's counts after every round: through churn, serve
        ``arrive``s (entities seeded between rounds), a target relocation
        and, on two shards, a worker killed, its district failed and
        healed."""
        config = SimulationConfig(
            grid_width=8,
            params=PARAMS,
            rounds=90,
            tid=(6, 6),
            sources=((0, 0), (0, 7)),
            fault=FaultSpec(pf=0.02, pr=0.3),
            seed=2,
            shards=2,
        )
        stepper = ResumableStepper(
            config, observability=ObservabilityConfig(metrics=True), engine=engine
        )
        simulator = stepper.simulator
        if engine == "sharded":
            simulator.engine.chaos = {
                1: {"phase": "signal", "round": 30, "action": "kill"}
            }
        registry = simulator.obs.registry
        system = simulator.system
        arrived = 0
        for round_index in range(config.rounds):
            if round_index % 10 == 5:
                arrived += stepper.arrive((3, 0)) is not None
            if round_index == 45:
                system.recover((5, 4))  # a no-op unless churn failed it
                stepper.relocate_target((5, 4))
            stepper.step()
            assert registry.gauge("entities.in_flight").value == (
                system.entity_count()
            ), round_index
            assert registry.gauge("cells.failed").value == len(
                system.failed_cells()
            ), round_index
        simulator.engine.close()
        assert arrived > 0
        assert system.tid == (5, 4)
        if engine == "sharded":
            events = [entry["event"] for entry in simulator.engine.healing_log]
            assert {"death", "district-failed", "heal"} <= set(events)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        metrics = []
        for path in paths:
            result = build_simulation(
                corridor_config(),
                observability=ObservabilityConfig(metrics=True, trace_path=str(path)),
            ).run()
            metrics.append(result.metrics)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert metrics[0] == metrics[1]

    def test_serial_and_parallel_sweeps_agree(self, tmp_path, monkeypatch):
        """The tentpole guarantee: REPRO_METRICS/REPRO_TRACE observed runs
        are equal (metrics) and byte-identical (event files) whether the
        sweep runs serially or over worker processes."""
        configs = [corridor_config(seed=seed, rounds=80) for seed in (0, 1, 2)]
        monkeypatch.setenv("REPRO_METRICS", "1")
        outputs = {}
        for mode, workers in (("serial", 1), ("parallel", 2)):
            trace_dir = tmp_path / mode
            monkeypatch.setenv("REPRO_TRACE", str(trace_dir))
            sweep = Sweep(name="obs-determinism")
            for config in configs:
                sweep.add(f"seed={config.seed}", config)
            result = sweep.run(workers=workers)
            assert result.ok
            outputs[mode] = [run.simulation_outputs() for run in result.runs]
        assert outputs["serial"] == outputs["parallel"]
        for run in outputs["serial"]:
            assert run["metrics"] is not None
        for config in configs:
            name = f"trace-{config.fingerprint()}.jsonl"
            serial_bytes = (tmp_path / "serial" / name).read_bytes()
            parallel_bytes = (tmp_path / "parallel" / name).read_bytes()
            assert serial_bytes, name
            assert serial_bytes == parallel_bytes, name


# ----------------------------------------------------------------------
# Exporters and the report CLI
# ----------------------------------------------------------------------


def record_events(tmp_path) -> Path:
    path = tmp_path / "events.jsonl"
    build_simulation(
        corridor_config(rounds=60),
        observability=ObservabilityConfig(trace_path=str(path)),
    ).run()
    return path


class TestExporters:
    def test_load_and_summarize(self, tmp_path):
        path = record_events(tmp_path)
        header, events = load_events(path)
        assert header["schema"] == TRACE_SCHEMA
        summary = summarize_events(header, events)
        assert summary["events_total"] == len(events)
        assert summary["by_type"]["SignalGranted"] > 0
        assert set(summary["by_type"]) == set(EVENT_TYPES)
        assert "unknown_types" not in summary  # only present when non-empty
        rendered = render_report(summary)
        assert "SignalGranted" in rendered
        assert str(summary["events_total"]) in rendered

    def test_summary_exports(self, tmp_path):
        path = record_events(tmp_path)
        header, events = load_events(path)
        summary = summarize_events(header, events)
        json_path = save_summary_json(summary, tmp_path / "summary.json")
        assert json.loads(json_path.read_text())["events_total"] == len(events)
        csv_path = save_summary_csv(summary, tmp_path / "summary.csv")
        csv_text = csv_path.read_text()
        assert "section,name,value" in csv_text.splitlines()[0]
        assert "by_type,SignalGranted," in csv_text

    def test_rejects_state_snapshot_trace(self, tmp_path):
        # The header shape repro.sim.trace.TraceRecorder writes.
        path = tmp_path / "state.jsonl"
        path.write_text('{"header": {"l": 0.25, "rs": 0.05}}\n')
        with pytest.raises(TraceSchemaError, match="state-snapshot"):
            load_events(path)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text('{"round": 0, "cells": {}}\n')
        with pytest.raises(TraceSchemaError, match="no header"):
            load_events(headerless)

    def test_rejects_newer_schema_with_clear_message(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"header": {"kind": "protocol-events", "schema": 99}}) + "\n"
        )
        with pytest.raises(TraceSchemaError, match="schema 99"):
            load_events(path)

    def test_rejects_empty_and_corrupt_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceSchemaError, match="empty"):
            load_events(empty)
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text(
            json.dumps({"header": {"kind": "protocol-events", "schema": 1}})
            + "\nnot json\n"
        )
        with pytest.raises(TraceSchemaError, match=r"corrupt\.jsonl:2 is corrupt"):
            load_events(corrupt)


class TestReportCli:
    def run_cli(self, argv, capsys):
        from repro.cli.main import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_report_renders_a_recorded_trace(self, tmp_path, capsys):
        path = record_events(tmp_path)
        code, out, _err = self.run_cli(["report", str(path)], capsys)
        assert code == 0
        assert "events by type" in out

    def test_report_schema_mismatch_exits_2_with_message(self, tmp_path, capsys):
        """The regression this PR fixes: a newer-schema trace must produce
        a clear one-line error and exit code 2, not a KeyError."""
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"header": {"kind": "protocol-events", "schema": 99}}) + "\n"
        )
        code, _out, err = self.run_cli(["report", str(path)], capsys)
        assert code == 2
        assert "schema 99" in err
        assert "Traceback" not in err

    def test_report_missing_file_exits_2(self, tmp_path, capsys):
        code, _out, err = self.run_cli(
            ["report", str(tmp_path / "nope.jsonl")], capsys
        )
        assert code == 2
        assert "no such trace file" in err

    def test_trace_events_flag_writes_summarizable_trace(self, tmp_path, capsys):
        state = tmp_path / "state.jsonl"
        events = tmp_path / "events.jsonl"
        code, out, _err = self.run_cli(
            [
                "trace",
                "--rounds",
                "40",
                "--out",
                str(state),
                "--events",
                str(events),
            ],
            capsys,
        )
        assert code == 0
        assert "events written" in out
        header, loaded = load_events(events)
        assert header["kind"] == "protocol-events"
        assert loaded


# ----------------------------------------------------------------------
# Sweep supervision counters
# ----------------------------------------------------------------------


class TestSupervisionMetrics:
    def test_inprocess_retries_are_counted(self):
        attempts = {"n": 0}

        def flaky(payload):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return payload[0], "ok"

        registry = MetricsRegistry()
        supervisor = SweepSupervisor(
            flaky,
            workers=1,
            retry=RetryPolicy(max_retries=2, backoff_base=0),
            metrics=registry,
        )
        outcomes = list(supervisor.run("t", [(0, "p0", None, {})]))
        assert outcomes == [(0, "ok")]
        counters = registry.to_dict()["counters"]
        assert counters["sweep.errors"] == 2
        assert counters["sweep.retries"] == 2
        assert counters["sweep.points_completed"] == 1
        assert "sweep.point_failures" not in counters

    def test_exhausted_point_is_counted_as_failure(self):
        def doomed(payload):
            raise RuntimeError("always")

        registry = MetricsRegistry()
        supervisor = SweepSupervisor(
            doomed,
            workers=1,
            retry=RetryPolicy(max_retries=1, backoff_base=0),
            metrics=registry,
        )
        ((_, failure),) = list(supervisor.run("t", [(0, "p0", None, {})]))
        assert failure.kind == "error"
        counters = registry.to_dict()["counters"]
        assert counters["sweep.errors"] == 2
        assert counters["sweep.retries"] == 1
        assert counters["sweep.point_failures"] == 1
