"""Tests for ``repro.serve``: sinks, backpressure, the command protocol,
and the service loop.

Four pillars, mirroring the subsystem's contracts:

* **byte-determinism** — the same command schedule yields byte-identical
  canonical event streams across every sink, every batch shape, and
  repeated runs;
* **backpressure matrix** — ``block`` never drops and bounds depth,
  ``drop-oldest`` satisfies exact conservation arithmetic, and a sink
  killed mid-batch leaves no partial record behind (atomic batches);
* **command protocol properties** — hypothesis drives arbitrary valid
  sequences (never crash) and arbitrary invalid objects (always a
  structured ``CommandError``), and drain→shutdown always flushes;
* **service harness** — acks, rejections, checkpoints, live violation
  verdicts, shard heal events, and the CLI's exit-code contract.
"""

import json
import sqlite3
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.params import Parameters
from repro.serve import (
    BACKPRESSURE_POLICIES,
    COMMAND_SCHEMA,
    COMMANDS,
    Command,
    CommandError,
    EventBuffer,
    FileCommandSource,
    MemorySink,
    RotatingJsonlSink,
    SERVICE_EVENTS,
    SINKS,
    ScriptedCommandSource,
    ServeService,
    SqliteSink,
    StdoutSink,
    build_service,
    canonical_line,
    check_bounded_memory,
    check_monotone_consumed,
    check_zero_violations,
    make_sink,
    parse_command,
    parse_command_line,
    serve_header,
    soak_verdicts,
)
from repro.serve.sinks import _repair_torn_tail
from repro.shard.coordinator import ShardCoordinator
from repro.sim.config import SimulationConfig

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def small_config(**overrides):
    base = dict(
        grid_width=6,
        grid_height=6,
        rounds=60,
        seed=11,
        params=PARAMS,
        tid=(5, 5),
        sources=((0, 0),),
        monitors=True,
    )
    base.update(overrides)
    return SimulationConfig(**base)


#: A schedule exercising every command class once.
FULL_SCHEDULE = [
    (2, {"v": 1, "cmd": "fail", "cell": [2, 2]}),
    (6, {"v": 1, "cmd": "recover", "cell": [2, 2]}),
    (8, {"v": 1, "cmd": "arrive", "cell": [0, 0]}),
    (10, {"v": 1, "cmd": "checkpoint"}),
    (14, {"v": 1, "cmd": "relocate", "target": [0, 5]}),
    (18, {"v": 1, "cmd": "drain"}),
    (30, {"v": 1, "cmd": "shutdown"}),
]


def run_service(sink, schedule=FULL_SCHEDULE, config=None, **options):
    service = build_service(
        config if config is not None else small_config(),
        sink,
        schedule=schedule,
        snapshot_every=options.pop("snapshot_every", 10),
        **options,
    )
    result = service.run()
    return service, result


# ---------------------------------------------------------------------------
# Byte-determinism across sinks, batch shapes, and runs
# ---------------------------------------------------------------------------


class TestSinkDeterminism:
    def test_two_runs_byte_identical(self):
        first, second = MemorySink(), MemorySink()
        run_service(first)
        run_service(second)
        assert first.to_jsonl() == second.to_jsonl()
        assert first.to_jsonl()  # not vacuous

    def test_serial_vs_batched_byte_identical(self):
        outputs = []
        for batch_size in (1, 7, 64):
            sink = MemorySink()
            run_service(sink, batch_size=batch_size)
            outputs.append(sink.to_jsonl())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_stdout_jsonl_sqlite_identical(self, tmp_path):
        stream = StringIO()
        stdout_sink = StdoutSink(stream=stream)
        run_service(stdout_sink)

        jsonl_sink = RotatingJsonlSink(tmp_path / "segments")
        run_service(jsonl_sink)

        sqlite_sink = SqliteSink(tmp_path / "events.db")
        run_service(sqlite_sink)

        # Strip header lines from the stdout stream; the other two
        # expose event records directly.
        stdout_events = "".join(
            line + "\n"
            for line in stream.getvalue().splitlines()
            if "header" not in json.loads(line)
        )
        jsonl_text = jsonl_sink.to_jsonl()
        sqlite_text = SqliteSink(tmp_path / "events.db").to_jsonl()
        assert stdout_events == jsonl_text == sqlite_text
        assert stdout_events.count("\n") > 20

    def test_sqlite_rows_round_trip_literally(self, tmp_path):
        sink = SqliteSink(tmp_path / "events.db")
        run_service(sink)
        reopened = SqliteSink(tmp_path / "events.db")
        for text, record in zip(reopened.iter_lines(), reopened.event_records()):
            assert canonical_line(record) == text

    def test_rotated_segments_are_self_describing(self, tmp_path):
        sink = RotatingJsonlSink(tmp_path / "seg", rotate_bytes=2000)
        run_service(sink)
        files = sink.files()
        assert len(files) > 1  # rotation actually happened
        for path in files:
            first = json.loads(path.read_text().splitlines()[0])
            assert first["header"]["kind"] == "serve-events"

    def test_rotation_preserves_event_sequence(self, tmp_path):
        rotated = RotatingJsonlSink(tmp_path / "rot", rotate_bytes=1500)
        run_service(rotated)
        single = RotatingJsonlSink(tmp_path / "single", rotate_bytes=10**9)
        run_service(single)
        assert rotated.to_jsonl() == single.to_jsonl()
        assert len(rotated.files()) > len(single.files())


# ---------------------------------------------------------------------------
# Backpressure matrix
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_policies_registry(self):
        assert set(BACKPRESSURE_POLICIES) == {"block", "drop-oldest"}

    def test_block_never_drops_and_bounds_depth(self):
        sink = MemorySink()
        buffer = EventBuffer(sink, capacity=10, batch_size=4, policy="block")
        # A "slow sink": never pumped while 100 events arrive.
        for i in range(100):
            buffer.publish({"round": i, "type": "t"})
        stats = buffer.stats()
        assert stats["dropped"] == 0
        assert stats["max_depth"] <= 10
        # Blocking committed batches inline to make room.
        assert stats["delivered"] > 0
        assert stats["produced"] == stats["delivered"] + stats["pending"]

    def test_drop_oldest_conservation_arithmetic(self):
        sink = MemorySink()
        buffer = EventBuffer(
            sink, capacity=10, batch_size=4, policy="drop-oldest"
        )
        for i in range(100):
            buffer.publish({"round": i, "type": "t"})
        stats = buffer.stats()
        assert stats["delivered"] == 0  # never pumped
        assert stats["dropped"] == stats["produced"] - stats["delivered"] - stats["pending"]
        assert stats["dropped"] == 90
        # The stream stays fresh: the oldest survivors are the newest 10.
        buffer.drain()
        assert [r["round"] for r in sink.records] == list(range(90, 100))

    def test_drop_oldest_counts_metric(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        buffer = EventBuffer(
            MemorySink(),
            capacity=2,
            batch_size=1,
            policy="drop-oldest",
            metrics=registry,
        )
        for i in range(5):
            buffer.publish({"round": i, "type": "t"})
        assert registry.counter("sink.dropped").value == 3

    def test_drain_flushes_everything(self):
        sink = MemorySink()
        buffer = EventBuffer(sink, capacity=100, batch_size=7, policy="block")
        for i in range(23):
            buffer.publish({"round": i, "type": "t"})
        buffer.pump()
        assert buffer.pending == 23 % 7  # partial batch held back
        buffer.drain()
        assert buffer.pending == 0
        assert len(sink.records) == 23
        assert sink.flushes == 1

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            EventBuffer(MemorySink(), capacity=0)
        with pytest.raises(ValueError, match="batch_size"):
            EventBuffer(MemorySink(), capacity=4, batch_size=8)
        with pytest.raises(ValueError, match="policy"):
            EventBuffer(MemorySink(), policy="bogus")

    def test_torn_jsonl_tail_repaired_on_reopen(self, tmp_path):
        directory = tmp_path / "seg"
        sink = RotatingJsonlSink(directory)
        sink.write_header(serve_header("abc"))
        sink.write_batch([{"round": 0, "type": "t"}, {"round": 1, "type": "t"}])
        sink.close()
        # A kill mid-write tears the final line.
        path = sink.files()[-1]
        with path.open("a") as handle:
            handle.write('{"round":2,"ty')
        reopened = RotatingJsonlSink(directory)
        assert reopened.repaired_bytes == len('{"round":2,"ty')
        # Every surviving line parses; the torn record is gone entirely.
        records = reopened.event_records()
        assert [r["round"] for r in records] == [0, 1]
        # Writing continues cleanly after the repair.
        reopened.write_header(serve_header("abc"))
        reopened.write_batch([{"round": 3, "type": "t"}])
        reopened.close()
        assert [r["round"] for r in reopened.event_records()] == [0, 1, 3]

    def test_repair_helper_noop_on_clean_file(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        path.write_text('{"round":0}\n')
        assert _repair_torn_tail(path) == 0
        assert path.read_text() == '{"round":0}\n'

    def test_sqlite_batch_is_all_or_nothing(self, tmp_path):
        sink = SqliteSink(tmp_path / "events.db")
        sink.write_batch([{"round": 0, "type": "t"}])

        class _DiesMidBatch:
            """Proxy connection: lands one row, then dies mid-batch."""

            def __init__(self, conn):
                self._conn = conn

            def __enter__(self):
                return self._conn.__enter__()

            def __exit__(self, *exc):
                return self._conn.__exit__(*exc)

            def executemany(self, sql, rows):
                rows = list(rows)
                self._conn.execute(sql.replace("?, ?, ?", "?, ?, ?"), rows[0])
                raise sqlite3.OperationalError("killed mid-batch")

            def __getattr__(self, name):
                return getattr(self._conn, name)

        sink._conn = _DiesMidBatch(sink._conn)
        with pytest.raises(sqlite3.OperationalError):
            sink.write_batch(
                [{"round": 1, "type": "t"}, {"round": 2, "type": "t"}]
            )
        # The transaction rolled back: the partial row is gone too.
        survivor = SqliteSink(tmp_path / "events.db")
        assert [r["round"] for r in survivor.event_records()] == [0]


# ---------------------------------------------------------------------------
# Command protocol
# ---------------------------------------------------------------------------


class TestCommandParsing:
    def test_registry_covers_the_protocol(self):
        assert set(COMMANDS) == {
            "arrive",
            "fail",
            "recover",
            "relocate",
            "adversary",
            "checkpoint",
            "drain",
            "shutdown",
        }

    def test_round_trip(self):
        obj = {"v": COMMAND_SCHEMA, "cmd": "fail", "cell": [2, 3], "at": 7}
        command = parse_command(obj)
        assert command.name == "fail"
        assert command.args["cell"] == (2, 3)
        assert command.at == 7
        assert parse_command(command.canonical()) == command

    @pytest.mark.parametrize(
        "obj, code",
        [
            ("not a dict", "bad-envelope"),
            ([1, 2], "bad-envelope"),
            ({"cmd": "fail", "cell": [0, 0]}, "bad-version"),
            ({"v": 2, "cmd": "fail", "cell": [0, 0]}, "bad-version"),
            ({"v": 1, "cmd": "explode"}, "unknown-command"),
            ({"v": 1, "cmd": "fail"}, "bad-fields"),
            ({"v": 1, "cmd": "fail", "cell": [0, 0], "extra": 1}, "bad-fields"),
            ({"v": 1, "cmd": "shutdown", "cell": [0, 0]}, "bad-fields"),
            ({"v": 1, "cmd": "fail", "cell": [0]}, "bad-value"),
            ({"v": 1, "cmd": "fail", "cell": ["a", "b"]}, "bad-value"),
            ({"v": 1, "cmd": "fail", "cell": [True, False]}, "bad-value"),
            ({"v": 1, "cmd": "fail", "cell": [0, 0], "at": -1}, "bad-value"),
            ({"v": 1, "cmd": "fail", "cell": [0, 0], "at": 1.5}, "bad-value"),
            ({"v": 1, "cmd": "adversary", "spec": ""}, "bad-value"),
        ],
    )
    def test_rejections_are_structured(self, obj, code):
        with pytest.raises(CommandError) as excinfo:
            parse_command(obj)
        assert excinfo.value.code == code
        assert excinfo.value.to_record()["code"] == code

    def test_bad_json_line(self):
        with pytest.raises(CommandError) as excinfo:
            parse_command_line("{not json")
        assert excinfo.value.code == "bad-json"

    @SLOW
    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False),
                st.text(max_size=8),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=3),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=8,
        )
    )
    def test_arbitrary_json_never_escapes_command_error(self, obj):
        """Any JSON-shaped object either parses or raises CommandError."""
        try:
            command = parse_command(obj)
        except CommandError as error:
            assert error.code in {
                "bad-envelope",
                "bad-version",
                "unknown-command",
                "bad-fields",
                "bad-value",
            }
        else:
            assert command.name in COMMANDS


def valid_command_objects():
    """Strategy: valid protocol objects for a 6x6 grid service."""
    cell = st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    ).map(list)
    return st.one_of(
        st.builds(lambda c: {"v": 1, "cmd": "fail", "cell": c}, cell),
        st.builds(lambda c: {"v": 1, "cmd": "recover", "cell": c}, cell),
        st.builds(lambda c: {"v": 1, "cmd": "arrive", "cell": c}, cell),
        st.builds(lambda c: {"v": 1, "cmd": "relocate", "target": c}, cell),
        st.just({"v": 1, "cmd": "checkpoint"}),
        st.just({"v": 1, "cmd": "drain"}),
    )


class TestCommandProperties:
    @SLOW
    @given(
        commands=st.lists(valid_command_objects(), max_size=8),
        batch_size=st.sampled_from([1, 5, 64]),
    )
    def test_valid_sequences_never_crash_the_stepper(self, commands, batch_size):
        """Any valid command sequence runs to completion, safely.

        Commands may be *rejected* (relocating onto a failed cell, an
        arrival into a full cell) — rejection is service behavior; an
        exception is a bug. Live monitors stay on throughout, so the
        property also re-checks Theorem 5 under command churn.
        """
        schedule = [(3 + 2 * i, obj) for i, obj in enumerate(commands)]
        schedule.append((3 + 2 * len(commands), {"v": 1, "cmd": "shutdown"}))
        sink = MemorySink()
        service, result = run_service(
            sink, schedule=schedule, batch_size=batch_size
        )
        assert service.stats()["stop_reason"] == "shutdown"
        assert result.monitor_violations == 0
        # Every command produced exactly one ack or one rejection.
        acks = sum(
            1
            for r in sink.records
            if r["type"] in ("service.command", "service.command_error")
        )
        assert acks == len(commands) + 1  # + shutdown

    @SLOW
    @given(
        prefix=st.lists(valid_command_objects(), max_size=5),
        batch_size=st.sampled_from([1, 3, 64]),
        capacity=st.sampled_from([8, 4096]),
    )
    def test_drain_then_shutdown_flushes_every_event(
        self, prefix, batch_size, capacity
    ):
        schedule = [(2 + i, obj) for i, obj in enumerate(prefix)]
        drain_round = 2 + len(prefix)
        schedule.append((drain_round, {"v": 1, "cmd": "drain"}))
        schedule.append((drain_round, {"v": 1, "cmd": "shutdown"}))
        sink = MemorySink()
        service, _ = run_service(
            sink,
            schedule=schedule,
            batch_size=min(batch_size, capacity),
            buffer_capacity=capacity,
        )
        stats = service.stats()["buffer"]
        assert stats["pending"] == 0
        assert stats["produced"] == stats["delivered"] + stats["dropped"]
        assert stats["dropped"] == 0  # block policy
        assert sink.records[-1]["type"] == "service.stopped"

    def test_invalid_commands_reject_without_stopping_the_service(self):
        schedule = [
            (2, {"v": 1, "cmd": "warp", "cell": [0, 0]}),
            (4, "garbage"),
            (6, {"v": 99, "cmd": "fail", "cell": [0, 0]}),
            (8, {"v": 1, "cmd": "fail", "cell": [99, 99]}),  # off-grid
            (10, {"v": 1, "cmd": "relocate", "target": [0, 0]}),  # the source
            (12, {"v": 1, "cmd": "adversary", "spec": "no_such_campaign"}),
            (15, {"v": 1, "cmd": "shutdown"}),
        ]
        sink = MemorySink()
        service, result = run_service(sink, schedule=schedule)
        assert service.stats()["command_errors"] == 6
        assert service.stats()["commands_applied"] == 1  # the shutdown
        errors = [
            r for r in sink.records if r["type"] == "service.command_error"
        ]
        assert [e["code"] for e in errors] == [
            "unknown-command",
            "bad-envelope",
            "bad-version",
            "bad-value",
            "bad-value",
            "bad-value",
        ]
        assert result.monitor_violations == 0


class TestCommandSources:
    def test_scripted_source_orders_and_exhausts(self):
        source = ScriptedCommandSource(
            [(5, {"v": 1, "cmd": "drain"}), (2, {"v": 1, "cmd": "checkpoint"})]
        )
        assert source.due(1) == []
        first = source.due(2)
        assert [c.name for c, _ in first] == ["checkpoint"]
        assert not source.exhausted()
        second = source.due(10)
        assert [c.name for c, _ in second] == ["drain"]
        assert source.exhausted()

    def test_file_source_tails_incrementally(self, tmp_path):
        path = tmp_path / "commands.jsonl"
        source = FileCommandSource(path)
        assert source.due(0) == []  # file does not exist yet
        with path.open("w") as handle:
            handle.write('{"v":1,"cmd":"checkpoint"}\n')
            handle.write('{"v":1,"cmd":"drain","at":9}\n')
            handle.write('{"v":1,"cmd":"fa')  # torn tail: incomplete line
        due = source.due(1)
        assert [c.name for c, _ in due] == ["checkpoint"]  # drain held for round 9
        with path.open("a") as handle:
            handle.write('il","cell":[1,1]}\n')  # completes the torn line
        due = source.due(2)
        assert [c.name for c, _ in due] == ["fail"]
        assert [c.name for c, _ in source.due(9)] == ["drain"]
        source.close()

    def test_file_source_reports_bad_lines(self, tmp_path):
        path = tmp_path / "commands.jsonl"
        path.write_text("this is not json\n")
        source = FileCommandSource(path)
        ((command, error),) = source.due(0)
        assert command is None and error.code == "bad-json"
        source.close()


# ---------------------------------------------------------------------------
# The service loop
# ---------------------------------------------------------------------------


class TestService:
    def test_header_and_event_taxonomy(self):
        sink = MemorySink()
        run_service(sink)
        header = sink.header["header"]
        assert header["kind"] == "serve-events"
        assert header["command_schema"] == COMMAND_SCHEMA
        for record in sink.records:
            assert record["type"] in SERVICE_EVENTS or not record[
                "type"
            ].startswith("service.")

    def test_full_schedule_acks_every_command(self):
        sink = MemorySink()
        service, _ = run_service(sink)
        acked = [
            r["command"]["cmd"]
            for r in sink.records
            if r["type"] == "service.command"
        ]
        assert acked == [
            "fail",
            "recover",
            "arrive",
            "checkpoint",
            "relocate",
            "drain",
            "shutdown",
        ]
        assert service.stats()["command_errors"] == 0

    def test_checkpoint_digest_matches_offline_recompute(self):
        from repro.testing.differential import state_digest

        sink = MemorySink()
        config = small_config()
        # max_rounds=11 so the tick that starts round 10 (where the
        # checkpoint is due) still runs; the digest is then the state
        # after exactly 10 completed rounds.
        service = build_service(
            config,
            sink,
            schedule=[(10, {"v": 1, "cmd": "checkpoint"})],
            max_rounds=11,
        )
        # Drive a twin service without the checkpoint to the same round.
        twin = build_service(small_config(), MemorySink(), max_rounds=10)
        while service.tick():
            pass
        service.finish()
        for _ in range(10):
            twin.tick()
        checkpoint = next(
            r for r in sink.records if r["type"] == "service.checkpoint"
        )
        assert checkpoint["digest"] == state_digest(twin.stepper.system)
        assert checkpoint["config_fingerprint"] == config.fingerprint()
        twin.finish()

    def test_snapshots_are_periodic_and_ledgered(self):
        sink = MemorySink()
        service = build_service(
            small_config(), sink, snapshot_every=5, max_rounds=20
        )
        result = service.run()
        snapshots = [
            r for r in sink.records if r["type"] == "service.snapshot"
        ]
        assert [s["snapshot_round"] for s in snapshots] == [4, 9, 14, 19]
        assert snapshots[-1]["consumed"] == result.consumed
        assert all(s["violations"] == 0 for s in snapshots)

    def test_live_violation_verdicts_stream(self):
        sink = MemorySink()
        service = build_service(small_config(), sink, max_rounds=5)
        service.tick()
        # The paper-faithful protocol never violates, so exercise the
        # wiring directly: a recorded violation must stream immediately
        # (and must not raise — serve runs the suite non-strict).
        assert service.monitors.strict is False
        service.monitors._record(3, "Safe (Theorem 5)", "synthetic overlap")
        service.buffer.drain()
        verdicts = [
            r for r in sink.records if r["type"] == "service.violation"
        ]
        assert len(verdicts) == 1
        assert verdicts[0]["property"] == "Safe (Theorem 5)"
        assert service.stats()["violations"] == 1
        service.finish()

    def test_arrive_rejected_on_failed_cell_still_acks(self):
        schedule = [
            (2, {"v": 1, "cmd": "fail", "cell": [0, 0]}),
            (4, {"v": 1, "cmd": "arrive", "cell": [0, 0]}),
            (6, {"v": 1, "cmd": "shutdown"}),
        ]
        sink = MemorySink()
        run_service(sink, schedule=schedule)
        arrive_ack = next(
            r
            for r in sink.records
            if r["type"] == "service.command"
            and r["command"]["cmd"] == "arrive"
        )
        assert arrive_ack["applied"] is False
        assert arrive_ack["uid"] is None

    def test_adversary_activation_offsets_to_current_round(self):
        sink = MemorySink()
        schedule = [
            (10, {"v": 1, "cmd": "adversary", "spec": "regional_failure"}),
            (55, {"v": 1, "cmd": "shutdown"}),
        ]
        service, _ = run_service(
            sink, schedule=schedule, config=small_config(rounds=80)
        )
        ack = next(
            r for r in sink.records if r["type"] == "service.command"
            and r["command"]["cmd"] == "adversary"
        )
        assert ack["applied"] is True and ack["events"] > 0
        fails = [r for r in sink.records if r["type"] == "CellFailed"]
        assert fails, "the activated campaign injected no faults"
        assert min(r["round"] for r in fails) >= 10

    def test_max_rounds_stops_without_commands(self):
        sink = MemorySink()
        service = build_service(small_config(), sink, max_rounds=7)
        service.run()
        assert service.stats()["rounds_served"] == 7
        assert service.stats()["stop_reason"] == "max-rounds"
        assert sink.closed

    def test_finish_is_idempotent(self):
        service = build_service(small_config(), MemorySink(), max_rounds=3)
        result = service.run()
        assert result is not None
        assert service.finish() is None

    def test_serve_metrics_land_in_result(self):
        schedule = [
            (2, {"v": 1, "cmd": "fail", "cell": [3, 3]}),
            (4, {"v": 1, "cmd": "nonsense"}),
            (8, {"v": 1, "cmd": "shutdown"}),
        ]
        _, result = run_service(MemorySink(), schedule=schedule)
        counters = result.metrics["counters"]
        assert counters["serve.commands"] == 2
        assert counters["serve.command_errors"] == 1
        assert counters["sink.delivered"] > 0
        assert counters["sink.batches"] > 0


class TestServiceSharded:
    def test_relocation_streams_a_heal_event(self, monkeypatch):
        """Under the sharded engine, a mid-run relocation reaches the
        running fleet as ``relocate`` events for the districts of the old
        and the new target (the route exchange carries the live target);
        no worker restarts. The healing log records one ``relocated``
        entry, and serve forwards it as a ``service.heal`` event."""
        spawned = []
        spawn = ShardCoordinator._spawn

        def counting_spawn(coordinator, handle):
            spawned.append(handle.shard_id)
            spawn(coordinator, handle)

        monkeypatch.setattr(ShardCoordinator, "_spawn", counting_spawn)
        schedule = [
            (5, {"v": 1, "cmd": "relocate", "target": [0, 5]}),
            (12, {"v": 1, "cmd": "shutdown"}),
        ]
        sink = MemorySink()
        service, result = run_service(
            sink,
            schedule=schedule,
            config=small_config(engine="sharded", shards=2),
        )
        heals = [r for r in sink.records if r["type"] == "service.heal"]
        assert [h["entry"]["event"] for h in heals] == ["relocated"]
        assert sorted(spawned) == [0, 1]
        assert service.stats()["heals_forwarded"] == len(heals)
        assert result.metrics["counters"]["serve.heals"] == len(heals)
        assert result.monitor_violations == 0

    def test_sharded_matches_reference_stream(self):
        """The serve stream is engine-invariant: sharded and reference
        runs of the same schedule emit byte-identical event sequences
        (modulo the heal events only the fleet produces)."""
        schedule = [
            (3, {"v": 1, "cmd": "fail", "cell": [2, 2]}),
            (9, {"v": 1, "cmd": "recover", "cell": [2, 2]}),
            (20, {"v": 1, "cmd": "shutdown"}),
        ]
        streams = {}
        for engine in ("reference", "sharded"):
            sink = MemorySink()
            run_service(
                sink,
                schedule=schedule,
                config=small_config(engine=engine, shards=2),
            )
            streams[engine] = "".join(
                canonical_line(r) + "\n"
                for r in sink.records
                if r["type"] != "service.heal"
            )
        assert streams["reference"] == streams["sharded"]


# ---------------------------------------------------------------------------
# Soak oracles
# ---------------------------------------------------------------------------


class TestOracles:
    def test_bounded_memory_accepts_plateau(self):
        samples = [100_000] * 4 + [100_100] * 16
        verdict = check_bounded_memory(samples)
        assert verdict.ok, verdict.detail

    def test_bounded_memory_rejects_linear_leak(self):
        samples = [100_000 + 1_000 * i for i in range(40)]
        verdict = check_bounded_memory(samples)
        assert not verdict.ok

    def test_bounded_memory_needs_samples(self):
        assert not check_bounded_memory([1, 2, 3]).ok

    def test_monotone_consumed(self):
        assert check_monotone_consumed([0, 0, 3, 7, 7]).ok
        verdict = check_monotone_consumed([0, 5, 4])
        assert not verdict.ok and "backwards" in verdict.detail
        assert not check_monotone_consumed([]).ok

    def test_zero_violations(self):
        assert check_zero_violations(0).ok
        assert not check_zero_violations(2).ok

    def test_trio_bundles_all_three(self):
        verdicts = soak_verdicts([100] * 20, [0, 1, 2], 0)
        assert [v.name for v in verdicts] == [
            "bounded-memory",
            "monotone-consumed",
            "zero-violations",
        ]
        assert all(v.ok for v in verdicts)


# ---------------------------------------------------------------------------
# Bounded meters (the bounded-memory substrate)
# ---------------------------------------------------------------------------


class TestBoundedMeters:
    """The serve loop's flat memory rests on the simulator's meters and
    the injector's shallow fault history: neither grows with rounds."""

    def test_meter_memory_is_flat(self):
        """The meters keep counters, not series: the throughput meter and
        occupancy probe hold only scalars, and the tracker keeps records
        for in-flight entities alone."""
        from repro.metrics.throughput import ThroughputMeter
        from repro.sim.simulator import build_simulation

        meter = ThroughputMeter()
        for i in range(10_000):
            meter.observe(i % 3)
        assert meter.rounds == 10_000
        assert meter.total_consumed == sum(i % 3 for i in range(10_000))

        simulator = build_simulation(small_config(rounds=200))
        simulator.run()
        for probe in (simulator.meter, simulator.occupancy):
            assert all(isinstance(v, (int, float)) for v in vars(probe).values())
        tracker = simulator.tracker
        consumed = sum(tracker.consumed_by_source.values())
        assert consumed == simulator.meter.total_consumed > 0
        assert len(tracker.records) == simulator.system.entity_count()

    def test_service_bounds_fault_history(self):
        """The service keeps the injector's shallow default window (the
        event stream carries the full fault record)."""
        service = build_service(small_config(), MemorySink(), max_rounds=30)
        injector = service.stepper.simulator.injector
        assert injector.history.maxlen == 256
        service.run()
        assert len(injector.history) == 30


# ---------------------------------------------------------------------------
# Tracer eviction regression (the ride-along bugfix)
# ---------------------------------------------------------------------------


class TestTracerEviction:
    def test_ring_buffer_counts_evictions(self):
        from repro.obs.tracer import RingBufferSink

        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.write({"round": i})
        assert sink.evicted == 7
        assert [r["round"] for r in sink.events()] == [7, 8, 9]

    def test_eviction_metric_wired_into_results(self):
        """A soak-shaped run with a tiny ring buffer reports the history
        its bound cost as ``trace.evicted`` instead of losing it silently
        (the pre-fix behavior)."""
        from repro.obs.instrument import ObservabilityConfig
        from repro.sim.simulator import build_simulation

        observability = ObservabilityConfig(metrics=True, trace_buffer=5)
        simulator = build_simulation(
            small_config(rounds=40), observability=observability
        )
        result = simulator.run()
        counters = result.metrics["counters"]
        assert counters["trace.events"] > 5
        assert counters["trace.evicted"] == counters["trace.events"] - 5


# ---------------------------------------------------------------------------
# Registries and the CLI
# ---------------------------------------------------------------------------


class TestRegistries:
    def test_sink_registry(self):
        assert set(SINKS) == {"stdout", "jsonl", "sqlite", "memory"}
        with pytest.raises(ValueError, match="unknown sink"):
            make_sink("kafka")
        with pytest.raises(ValueError, match="requires a path"):
            make_sink("sqlite")

    def test_make_sink_constructs_each(self, tmp_path):
        assert isinstance(make_sink("stdout", stream=StringIO()), StdoutSink)
        assert isinstance(make_sink("memory"), MemorySink)
        assert isinstance(
            make_sink("jsonl", path=tmp_path / "d"), RotatingJsonlSink
        )
        assert isinstance(
            make_sink("sqlite", path=tmp_path / "e.db"), SqliteSink
        )


class TestServeCli:
    def test_serve_stdout_clean_exit(self, capsys):
        from repro.cli.main import main

        code = main(
            ["serve", "--grid", "6", "--length", "6", "--rounds", "50",
             "--max-rounds", "30", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["header"]["kind"] == "serve-events"
        assert lines[-1]["type"] == "service.stopped"

    def test_serve_sqlite_with_command_file(self, tmp_path, capsys):
        from repro.cli.main import main

        command_file = tmp_path / "commands.jsonl"
        command_file.write_text(
            json.dumps({"v": 1, "cmd": "fail", "cell": [1, 1], "at": 5})
            + "\n"
            + json.dumps({"v": 1, "cmd": "shutdown", "at": 20})
            + "\n"
        )
        db = tmp_path / "events.db"
        code = main(
            ["serve", "--grid", "6", "--length", "6", "--rounds", "100",
             "--seed", "2", "--sink", "sqlite", "--sink-path", str(db),
             "--command-file", str(command_file)]
        )
        assert code == 0
        reopened = SqliteSink(db)
        types = {r["type"] for r in reopened.event_records()}
        assert "service.command" in types and "service.stopped" in types

    def test_serve_exit_code_on_command_errors(self, tmp_path, capsys):
        from repro.cli.main import EXIT_BAD_COMMAND, main

        command_file = tmp_path / "commands.jsonl"
        command_file.write_text(
            'garbage\n'
            + json.dumps({"v": 1, "cmd": "shutdown", "at": 10})
            + "\n"
        )
        code = main(
            ["serve", "--grid", "6", "--length", "6", "--rounds", "50",
             "--seed", "2", "--command-file", str(command_file)]
        )
        assert code == EXIT_BAD_COMMAND

    def test_serve_requires_sink_path(self, capsys):
        from repro.cli.main import EXIT_BAD_COMMAND, main

        assert main(["serve", "--sink", "sqlite"]) == EXIT_BAD_COMMAND
        assert "--sink-path" in capsys.readouterr().err
