"""Chaos tests: every supervision guarantee, proven by injected failure.

The acceptance contract (ISSUE 2): with ``workers=4``,

(a) a point that raises is retried up to ``max_retries`` then recorded
    as a structured ``PointFailure`` while all other points complete and
    a ``SweepResult`` is still returned;
(b) a SIGKILLed worker's point is rescheduled and the sweep's successful
    results are bit-identical to a serial run;
(c) a point exceeding ``point_timeout`` is terminated and reported, and
    the sweep still terminates;
(d) resume from a checkpoint with a torn final line re-runs the torn
    point, and resume after a config change rejects the stale records.

These tests use the default (fork on Linux) multiprocessing context so
the chaos work function and its counter files need no import gymnastics;
the spawn-context pickling path is covered by ``tests/test_parallel.py``.
"""

import json

import pytest

from repro.sim.parallel import (
    CheckpointMismatch,
    ParallelSweepRunner,
    _execute_point,
)
from repro.sim.results import PointFailure, SweepResult
from repro.sim.supervisor import PointFailureError, RetryPolicy, SweepSupervisor

from tests.chaos import (
    chaos_execute,
    make_points,
    serial_outputs,
    tiny_config,
    with_chaos,
)


def outputs(results):
    return [
        result.simulation_outputs()
        for result in results
        if not isinstance(result, PointFailure)
    ]


class TestRaisingPoints:
    def test_exhausted_point_becomes_structured_failure(self):
        # (a): one point raises on every attempt; the sweep degrades
        # gracefully and everything else completes.
        points = with_chaos(make_points(6), 2, {"raise_always": True})
        runner = ParallelSweepRunner(
            workers=4, max_retries=2, backoff_base=0.0, work=chaos_execute
        )
        result = runner.run_sweep("chaos-raise", points)
        assert isinstance(result, SweepResult)
        assert len(result.failures) == 1 and len(result.runs) == 5
        failure = result.failures[0]
        assert failure.kind == "error"
        assert failure.error_type == "RuntimeError"
        assert "chaos" in failure.message
        assert failure.attempts == 3  # 1 try + 2 retries
        assert failure.index == 2 and failure.label == "p2"
        assert failure.elapsed >= 0.0
        assert not result.ok

    def test_transient_error_recovers_bit_identical(self, tmp_path):
        # A point that fails once then succeeds must equal a clean run:
        # retries re-execute the identical seeded config.
        clean = make_points(6)
        points = with_chaos(
            clean, 3, {"raise_times": 1, "counter": str(tmp_path / "attempts")}
        )
        runner = ParallelSweepRunner(
            workers=4, max_retries=2, backoff_base=0.0, work=chaos_execute
        )
        result = runner.run_sweep("chaos-transient", points)
        assert result.ok
        assert outputs(result.runs) == serial_outputs(clean)

    def test_progress_reports_retry_and_giveup(self):
        events = []
        points = with_chaos(make_points(2), 0, {"raise_always": True})
        runner = ParallelSweepRunner(
            workers=2,
            max_retries=1,
            backoff_base=0.0,
            work=chaos_execute,
            progress=events.append,
        )
        runner.run_sweep("chaos-progress", points)
        assert any("retry" in event for event in events)
        assert any("giving up" in event for event in events)

    def test_strict_restores_fail_fast(self):
        points = with_chaos(make_points(4), 1, {"raise_always": True})
        runner = ParallelSweepRunner(
            workers=2,
            max_retries=0,
            backoff_base=0.0,
            strict=True,
            work=chaos_execute,
        )
        with pytest.raises(PointFailureError) as excinfo:
            runner.run_sweep("chaos-strict", points)
        assert excinfo.value.failure.label == "p1"

    def test_inprocess_supervision_matches_pool_semantics(self):
        # workers=1 runs in-process but must still retry and degrade.
        points = with_chaos(make_points(3), 0, {"raise_always": True})
        runner = ParallelSweepRunner(
            workers=1, max_retries=1, backoff_base=0.0, work=chaos_execute
        )
        result = runner.run_sweep("chaos-serial", points)
        assert len(result.failures) == 1 and result.failures[0].attempts == 2
        assert len(result.runs) == 2


class TestWorkerDeath:
    def test_sigkilled_worker_point_rescheduled_bit_identical(self, tmp_path):
        # (b): the worker running p1 SIGKILLs itself on the first attempt.
        # The supervisor must reap it, respawn, reschedule — and the final
        # results must be bit-identical to a serial run without chaos.
        clean = make_points(6)
        points = with_chaos(
            clean, 1, {"kill": True, "counter": str(tmp_path / "kills")}
        )
        runner = ParallelSweepRunner(
            workers=4, max_retries=2, backoff_base=0.0, work=chaos_execute
        )
        result = runner.run_sweep("chaos-kill", points)
        assert result.ok
        assert outputs(result.runs) == serial_outputs(clean)

    def test_repeated_death_exhausts_into_worker_death_failure(self, tmp_path):
        points = with_chaos(
            make_points(4),
            0,
            {"kill": True, "kill_times": 99, "counter": str(tmp_path / "kills")},
        )
        runner = ParallelSweepRunner(
            workers=2, max_retries=1, backoff_base=0.0, work=chaos_execute
        )
        result = runner.run_sweep("chaos-kill-loop", points)
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.kind == "worker-death"
        assert failure.error_type == "WorkerDeath"
        assert failure.attempts == 2
        assert len(result.runs) == 3


class TestTimeouts:
    def test_hung_point_terminated_and_reported(self):
        # (c): p0 hangs forever; the sweep must terminate anyway, with a
        # structured timeout failure and every other point completed.
        points = with_chaos(make_points(5), 0, {"hang": 120})
        runner = ParallelSweepRunner(
            workers=4,
            max_retries=0,
            point_timeout=1.0,
            work=chaos_execute,
        )
        result = runner.run_sweep("chaos-hang", points)
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.kind == "timeout"
        assert failure.error_type == "PointTimeout"
        assert len(result.runs) == 4

    def test_hang_once_recovers_on_retry(self, tmp_path):
        clean = make_points(4)
        points = with_chaos(
            clean,
            2,
            {"hang": 60, "hang_times": 1, "counter": str(tmp_path / "hangs")},
        )
        runner = ParallelSweepRunner(
            workers=2,
            max_retries=1,
            backoff_base=0.0,
            point_timeout=1.5,
            work=chaos_execute,
        )
        result = runner.run_sweep("chaos-hang-once", points)
        assert result.ok
        assert outputs(result.runs) == serial_outputs(clean)

    def test_point_timeout_validation(self):
        with pytest.raises(ValueError):
            SweepSupervisor(work=_execute_point, point_timeout=0.0)


class TestCheckpointChaos:
    def run_checkpointed(self, points, ckpt, **kwargs):
        runner = ParallelSweepRunner(
            checkpoint=ckpt, resume=True, work=_execute_point, **kwargs
        )
        return runner.run_sweep("chaos-ckpt", points)

    def test_torn_final_line_dropped_and_rerun(self, tmp_path):
        # (d, first half): kill-mid-append leaves a torn trailing line.
        # Resume must warn, drop it, re-run exactly that point, and end
        # with a whole checkpoint and full results.
        ckpt = tmp_path / "sweep.jsonl"
        points = make_points(5)
        full = self.run_checkpointed(points, ckpt)
        raw = ckpt.read_text()
        lines = raw.splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        ckpt.write_text(torn)

        events = []
        with pytest.warns(RuntimeWarning, match="torn final line"):
            resumed = self.run_checkpointed(
                points, ckpt, progress=events.append
            )
        assert outputs(resumed.runs) == outputs(full.runs)
        assert sum("resumed" in event for event in events) == 4
        assert sum("finished" in event for event in events) == 1
        # The checkpoint is whole and parseable again.
        restored = [json.loads(line) for line in ckpt.read_text().splitlines()]
        assert sorted(record["index"] for record in restored) == list(range(5))

    def test_interior_corruption_refuses_resume(self, tmp_path):
        ckpt = tmp_path / "sweep.jsonl"
        points = make_points(3)
        self.run_checkpointed(points, ckpt)
        lines = ckpt.read_text().splitlines()
        lines[0] = lines[0][:20]  # corrupt a non-final record
        ckpt.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointMismatch, match="corrupt mid-file"):
            self.run_checkpointed(points, ckpt)

    def test_changed_config_rejected_by_fingerprint(self, tmp_path):
        # (d, second half): same sweep name and labels, different
        # parameters — the fingerprint must refuse the stale records.
        ckpt = tmp_path / "sweep.jsonl"
        self.run_checkpointed(make_points(3), ckpt)
        changed = [
            (label, tiny_config(seed=index, rounds=80), extras)
            for index, (label, config, extras) in enumerate(make_points(3))
        ]
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            self.run_checkpointed(changed, ckpt)

    def test_missing_trailing_newline_repaired(self, tmp_path):
        ckpt = tmp_path / "sweep.jsonl"
        points = make_points(3)
        self.run_checkpointed(points, ckpt)
        ckpt.write_text(ckpt.read_text().rstrip("\n"))  # complete but unterminated
        resumed = self.run_checkpointed(points, ckpt)
        assert len(resumed.runs) == 3
        assert ckpt.read_text().endswith("\n")
        restored = [json.loads(line) for line in ckpt.read_text().splitlines()]
        assert len(restored) == 3

    def test_failed_points_not_checkpointed(self, tmp_path):
        # A failure must not be recorded as done: the next resume retries it.
        ckpt = tmp_path / "sweep.jsonl"
        points = with_chaos(make_points(3), 1, {"raise_always": True})
        runner = ParallelSweepRunner(
            checkpoint=ckpt,
            resume=True,
            max_retries=0,
            backoff_base=0.0,
            work=chaos_execute,
        )
        result = runner.run_sweep("chaos-ckpt-fail", points)
        assert len(result.failures) == 1
        recorded = {
            json.loads(line)["index"] for line in ckpt.read_text().splitlines()
        }
        assert recorded == {0, 2}

        clean = make_points(3)
        resumed = ParallelSweepRunner(
            checkpoint=ckpt, resume=True, work=_execute_point
        ).run_sweep("chaos-ckpt-fail", clean)
        assert resumed.ok and len(resumed.runs) == 3


class TestFailureSerialization:
    def test_sweep_result_with_failures_roundtrips_json(self, tmp_path):
        points = with_chaos(make_points(3), 0, {"raise_always": True})
        runner = ParallelSweepRunner(
            workers=2, max_retries=1, backoff_base=0.0, work=chaos_execute
        )
        result = runner.run_sweep("chaos-json", points)
        path = result.save_json(tmp_path / "result.json")
        loaded = SweepResult.load_json(path)
        assert loaded.failures == result.failures
        assert [run.to_dict() for run in loaded.runs] == [
            run.to_dict() for run in result.runs
        ]
        assert not loaded.ok

    def test_retry_policy_validation_and_backoff(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.5, backoff_cap=2.0)
        assert policy.max_attempts == 4
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(5) == 2.0  # capped
        assert RetryPolicy(backoff_base=0.0).backoff(3) == 0.0
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestShardChaos:
    """Shard-death chaos matrix (ISSUE 7): a SIGKILLed / hung / torn
    district worker must heal — cells observed failed, shard respawned
    from the authoritative snapshot, Route re-stabilized within the
    Lemma 6 horizon — with zero monitor violations throughout."""

    def events(self, sim, name):
        return [e for e in sim.engine.healing_log if e["event"] == name]

    def assert_healed_clean(self, sim, result, phase):
        assert result.monitor_violations == 0
        assert sim.engine.degraded is False
        deaths = self.events(sim, "death")
        assert len(deaths) == 1 and deaths[0]["phase"] == phase
        assert deaths[0]["shard"] == 1
        [failed] = self.events(sim, "district-failed")
        assert failed["cells"] > 0 and failed["round"] > deaths[0]["round"]
        [heal] = self.events(sim, "heal")
        assert heal["round"] >= failed["round"] + 1  # heal_delay respected
        [stabilized] = self.events(sim, "stabilized")
        assert stabilized["within_horizon"] is True
        assert stabilized["rounds"] <= stabilized["horizon"]

    @pytest.mark.parametrize("phase", ["route", "signal"])
    def test_sigkill_mid_round_heals_within_horizon(self, phase):
        from tests.chaos import build_sharded_sim, shard_kill

        sim = build_sharded_sim(chaos=shard_kill(5, phase=phase))
        result = sim.run()
        self.assert_healed_clean(sim, result, phase)

    @pytest.mark.parametrize(
        "kill_round, first", [(10, "route"), (16, "signal")], ids=["route", "signal"]
    )
    def test_sigkill_between_rounds_with_slice_queued_heals(self, kill_round, first):
        """A worker SIGKILLed between rounds, while the last round's
        Move and production slice waits in its queue for the next
        request, is found dead at that round's first exchange: route
        while its district's Route still runs (round 10), signal once
        the district is quiet and not asked for Route (round 16). The
        round equals the reference's, the shard heals clean, and the
        respawned worker's mirror audits in sync."""
        from repro.sim.simulator import build_simulation
        from repro.testing.differential import canonical_report, canonical_state
        from tests.chaos import build_sharded_sim, shard_config

        config = shard_config(rounds=45)
        sim = build_sharded_sim(config)
        reference = build_simulation(config, engine="reference")
        try:
            for round_index in range(config.rounds):
                expected = canonical_report(reference.step())
                if round_index == kill_round:
                    handle = sim.engine.coordinator._handles[1]
                    assert handle.pending_slice is not None
                    handle.process.kill()
                    handle.process.wait()
                report = canonical_report(sim.step())
                if round_index == kill_round:
                    assert report == expected
                    assert canonical_state(sim.system) == canonical_state(
                        reference.system
                    )
            verdicts = sim.engine.coordinator.audit()
        finally:
            result = sim.summarize()
        [death] = self.events(sim, "death")
        assert (death["round"], death["reason"]) == (kill_round, "ChannelClosed")
        self.assert_healed_clean(sim, result, first)
        assert verdicts == {0: True, 1: True}

    def test_healed_district_stabilizes_under_churn(self):
        """Under background churn the whole grid's Route is never quiet,
        so the watch looks at the healed district alone: it is stable at
        the first round after the heal that changes none of its cells'
        ``dist`` or ``next``, well inside the horizon."""
        from repro.obs.instrument import ObservabilityConfig
        from repro.sim.config import FaultSpec, SimulationConfig
        from tests.chaos import PARAMS, build_sharded_sim, shard_kill

        config = SimulationConfig(
            grid_width=8,
            params=PARAMS,
            rounds=101,
            tid=(6, 6),
            sources=((0, 0), (0, 7)),
            fault=FaultSpec(pf=0.02, pr=0.3),
            seed=2,
            engine="sharded",
            shards=2,
        )
        sim = build_sharded_sim(
            config,
            chaos=shard_kill(30, phase="route"),
            heal_delay=2,
            observability=ObservabilityConfig(metrics=True),
        )
        result = sim.run()
        [death] = self.events(sim, "death")
        assert (death["round"], death["phase"]) == (30, "route")
        [heal] = self.events(sim, "heal")
        assert heal["round"] == 33
        assert self.events(sim, "stabilization-overdue") == []
        [stabilized] = self.events(sim, "stabilized")
        assert stabilized["rounds"] == stabilized["round"] - heal["round"]
        assert 0 < stabilized["rounds"] <= stabilized["horizon"] == 66
        respawn_rounds = result.metrics["histograms"]["shard.respawn_rounds"]
        assert respawn_rounds["count"] == 1
        assert respawn_rounds["sum"] == stabilized["rounds"]

    def test_hang_past_heartbeat_is_a_death_then_heals(self):
        from tests.chaos import build_sharded_sim, shard_hang

        # The worker hangs far beyond the channel timeout; the bounded
        # retry gives up (a heartbeat timeout), the handle is reaped
        # (killing the hung process), and healing proceeds as for a kill.
        sim = build_sharded_sim(
            chaos=shard_hang(4, seconds=60.0), timeout=0.2, retries=1
        )
        result = sim.run()
        self.assert_healed_clean(sim, result, "route")
        [death] = self.events(sim, "death")
        assert death["reason"] == "ChannelTimeout"

    @pytest.mark.parametrize("action", ["drop", "tear"])
    def test_torn_boundary_message_survived_by_retransmit(self, action):
        from repro.obs.instrument import ObservabilityConfig
        from repro.testing.differential import state_digest
        from tests.chaos import build_sharded_sim, shard_drop, shard_tear

        chaos = (shard_drop if action == "drop" else shard_tear)(6, phase="signal")
        sim = build_sharded_sim(
            chaos=chaos,
            timeout=0.2,
            observability=ObservabilityConfig(metrics=True),
        )
        result = sim.run()
        # No death: the cached reply satisfied the retransmit.
        assert sim.engine.healing_log == []
        assert result.monitor_violations == 0
        assert result.metrics["counters"]["channel.retries"] >= 1
        # And the run is bit-identical to an undisturbed sharded run.
        clean = build_sharded_sim()
        clean.run()
        assert state_digest(sim.system) == state_digest(clean.system)

    def test_respawn_budget_exhaustion_degrades_gracefully(self):
        from tests.chaos import build_sharded_sim, shard_kill

        sim = build_sharded_sim(
            chaos=shard_kill(5, phase="route"), respawn_budget=0
        )
        result = sim.run()
        assert result.rounds == sim.rounds  # the run still completes
        assert result.monitor_violations == 0
        assert sim.engine.degraded is True
        [degraded] = [
            e for e in sim.engine.healing_log if e["event"] == "degraded"
        ]
        assert degraded["shard"] == 1 and degraded["respawns_used"] == 0
        assert not [e for e in sim.engine.healing_log if e["event"] == "heal"]
        # The dead district stays failed; its cells never resurrect.
        assert all(
            sim.system.cells[(i, j)].failed for i in range(6) for j in range(3, 6)
        )

    # -- the death round itself ----------------------------------------

    #: Faulting ``random_config`` seeds the death round is checked on.
    DEATH_SEEDS = range(4)

    @staticmethod
    def reference_rounds(seed):
        """The reference run of ``random_config(seed)``: each round's
        canonical report and the canonical state after it."""
        from repro.sim.simulator import build_simulation
        from repro.testing.differential import (
            canonical_report,
            canonical_state,
            random_config,
        )

        sim = build_simulation(random_config(seed), engine="reference")
        rounds = []
        for _ in range(sim.rounds):
            report = canonical_report(sim.step())
            rounds.append((report, canonical_state(sim.system)))
        return rounds

    @staticmethod
    def kill_round(reference, district, phase):
        """The first round >= 2 at which the reference changes a Route
        value (``route``), or grants or blocks (``signal``), inside
        ``district``: a round whose phase the coordinator's fallback
        must compute for the district to match."""
        for round_index, (report, _) in enumerate(reference):
            if round_index < 2:
                continue
            if phase == "route":
                touched = {*report["route.changed_dist"], *report["route.changed_next"]}
            else:
                touched = {g for g, _ in report["signal.granted"]}
                touched.update(report["signal.blocked"])
            if touched & district:
                return round_index
        raise AssertionError(f"the reference never changes {phase} in {sorted(district)}")

    def death_round_divergence(self, seed, reference, shards, phase, skip=False):
        """Kill shard 1's worker in ``phase`` at :meth:`kill_round` and
        step a real fleet through that round; ``skip``: the coordinator's
        fallback leaves the phase out. Returns the first round whose
        report or state differs from the reference's, or None."""
        from dataclasses import replace

        from repro.core.route import RoutePhaseReport
        from repro.core.signal import SignalPhaseReport
        from repro.shard.partition import make_plan
        from repro.testing.differential import (
            canonical_report,
            canonical_state,
            random_config,
        )
        from tests.chaos import build_sharded_sim, shard_kill

        config = replace(random_config(seed), shards=shards, engine="sharded")
        sim = build_sharded_sim(config)
        district = set(make_plan(sim.system.grid, shards, "rows").district(1).cells)
        death = self.kill_round(reference, district, phase)
        sim.engine.chaos = shard_kill(death, phase=phase)
        if skip:
            skipped = RoutePhaseReport if phase == "route" else SignalPhaseReport
            setattr(sim.system, f"{phase}_cells", lambda cids: skipped())
        try:
            for round_index in range(death + 1):
                report = canonical_report(sim.step())
                if (report, canonical_state(sim.system)) != reference[round_index]:
                    return round_index
            [entry] = self.events(sim, "death")
            assert (entry["round"], entry["phase"], entry["shard"]) == (death, phase, 1)
            return None
        finally:
            sim.engine.close()

    @pytest.mark.parametrize("phase", ["route", "signal"])
    def test_death_round_is_state_identical_to_the_reference(self, phase):
        """The coordinator computes a dead district's phase with the
        loops the workers run, so the round a worker dies in matches a
        run without the death, report and state."""
        for seed in self.DEATH_SEEDS:
            reference = self.reference_rounds(seed)
            for shards in (2, 4):
                divergence = self.death_round_divergence(seed, reference, shards, phase)
                assert divergence is None, (seed, shards, divergence)

    @pytest.mark.parametrize("phase", ["route", "signal"])
    def test_fallback_that_skips_the_phase_is_caught(self, phase):
        """MUTANT: the coordinator's fallback leaves the dead district's
        Route (Signal) out. The kill round is one where the reference
        changes that phase inside the district, so every run catches it."""
        for seed in self.DEATH_SEEDS:
            reference = self.reference_rounds(seed)
            for shards in (2, 4):
                divergence = self.death_round_divergence(
                    seed, reference, shards, phase, skip=True
                )
                assert divergence is not None, (seed, shards)

    def test_repeated_kill_consumes_budget_then_degrades(self):
        from tests.chaos import build_sharded_sim, shard_kill

        # repeat=True re-kills every respawned worker at its first
        # route request, draining the budget death by death.
        sim = build_sharded_sim(
            chaos=shard_kill(5, phase="route", repeat=True),
            respawn_budget=2,
            config=None,
        )
        result = sim.run()
        assert result.monitor_violations == 0
        assert sim.engine.degraded is True
        assert len(self.events(sim, "heal")) == 2  # budget fully used
        assert len(self.events(sim, "death")) == 3
