"""The benchmark's own tests: ``python -m pytest perfbench``.

Every workload runs with a window of a fraction of a second, so the
whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

import clock
import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def test_benchmark_json_lists_every_workload():
    assert [entry["name"] for entry in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("trace_mode", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace_mode, monkeypatch):
    monkeypatch.setattr(run, "MIN_SETUPS", 1)
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)
    result = run.run_workload(
        name, workloads.WORKLOADS[name].default_seed, 0.4, trace_mode
    )
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace_mode else SPEC["end_to_end"]
    assert {metric: unit for metric, (_, unit) in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    if not trace_mode:
        assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize("name", ["contention-16", "serve-sharded"])
def test_traced_round_is_covered_exactly_by_its_spans(name):
    layer, replay = run.traced_replay(
        workloads.WORKLOADS[name], workloads.WORKLOADS[name].default_seed, rounds=3
    )
    assert replay.error is None and replay.outcome is not None
    rows = layer.recorder.spans
    selfs = spans.self_times(rows)
    children = {index: [] for index in range(len(rows))}
    for index, row in enumerate(rows):
        if row[spans.PARENT] >= 0:
            children[row[spans.PARENT]].append(index)
    resolution = 1e-9
    rounds = [
        index
        for index, row in enumerate(rows)
        if row[spans.PARENT] < 0 and row[spans.ROUND] >= 1
    ]
    assert len(rounds) == 3
    for root in rounds:
        subtree, stack = [], [root]
        while stack:
            index = stack.pop()
            subtree.append(index)
            for child in children[index]:
                parent = rows[index]
                assert parent[spans.START] <= rows[child][spans.START]
                assert rows[child][spans.END] <= parent[spans.END]
                stack.append(child)
        assert len(subtree) > 5
        duration = rows[root][spans.END] - rows[root][spans.START]
        assert abs(sum(selfs[index] for index in subtree) - duration) < resolution
        assert all(selfs[index] >= -resolution for index in subtree)


class ScriptedClock:
    """A host clock that reads the given speeds in turn."""

    def __init__(self, speeds):
        self.speeds = []
        self._next = iter(speeds)

    def sample(self):
        self.speeds.append(next(self._next))
        return self.speeds[-1]


def _busy(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_each_round_is_scaled_by_the_host_speed_around_it():
    measured = run.Run()
    run._timed_loop(measured, lambda: (1, 0), rounds=3, host=ScriptedClock([1.0, 3.0, 2.0, 4.0]))
    assert measured.speeds == [2.0, 2.5, 3.0]
    assert len(measured.costs) == 3
    assert measured.nominal() == [
        cost * speed for cost, speed in zip(measured.costs, [2.0, 2.5, 3.0])
    ]


def test_the_window_counts_nominal_seconds():
    def two_ms_round():
        _busy(0.002)
        return 1, 0

    measured = run.Run()
    # At ten times nominal speed one 2 ms round fills a 10 ms window.
    run._timed_loop(measured, two_ms_round, seconds=0.01, host=ScriptedClock([10.0] * 3))
    assert len(measured.durations) == 1


def test_cpu_time_counts_children_and_leaves_out_waiting():
    before = clock.cpu_times()
    time.sleep(0.05)
    assert clock.cpu_spent(before, clock.cpu_times()) < 0.02
    burn = "import time\nend = time.process_time() + 0.2\nwhile time.process_time() < end: pass\ntime.sleep(30)"
    child = subprocess.Popen([sys.executable, "-c", burn])
    try:
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            spent = clock.cpu_spent(before, clock.cpu_times())
            if spent >= 0.2:
                break
            time.sleep(0.05)
        assert spent >= 0.2
    finally:
        child.kill()
        child.wait()


def test_clock_speed_is_the_kernel_rate_over_nominal(monkeypatch):
    ticks = iter(range(2 * clock.SAMPLE_RUNS))
    monkeypatch.setattr(clock, "time", SimpleNamespace(thread_time=ticks.__next__))
    monkeypatch.setattr(clock, "NOMINAL_RATE", 0.5)
    host = clock.HostClock()
    assert host.sample() == 2.0  # every kernel run reads 1 s: 1 run/s
    assert host.speeds == [2.0]


@pytest.mark.parametrize("field", ["digest", "produced", "consumed", "rounds"])
def test_output_check_rejects_a_mismatch_with_the_twin(field):
    outcome = workloads.Outcome(
        rounds=10, digest="a" * 64, produced=40, consumed=30, violations=0
    )
    assert run.check_outputs(outcome, replace(outcome)) == []
    wrong = replace(outcome, **{field: "b" * 64 if field == "digest" else 7})
    assert run.check_outputs(outcome, wrong)
    assert run.check_outputs(outcome, replace(outcome), traced=wrong)


def test_output_check_rejects_violations_and_ledger_defects():
    outcome = workloads.Outcome(
        rounds=10, digest="a" * 64, produced=40, consumed=30, violations=0
    )
    assert run.check_outputs(replace(outcome, violations=1), outcome)
    assert run.check_outputs(replace(outcome, problems=["dropped 3"]), outcome)


def test_planted_wrong_digest_fails_the_run(monkeypatch, capsys):
    real_twin = workloads.run_twin

    def perturbed_twin(workload, seed, rounds):
        outcome = real_twin(workload, seed, rounds)
        return replace(outcome, digest="0" * 64)

    monkeypatch.setattr(workloads, "run_twin", perturbed_twin)
    monkeypatch.setattr(run, "MIN_SETUPS", 1)
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)
    code = run.main(["--workload", "contention-16", "--seconds", "0.3"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any("OUTPUT CHECK FAILED: digest" in line for line in lines)


def test_a_raising_round_fails_every_operation(monkeypatch):
    real_step = workloads.BatchRunner.step
    calls = []

    def flaky_step(runner):
        calls.append(runner)
        if len(calls) == 3:
            raise RuntimeError("planted failure")
        return real_step(runner)

    monkeypatch.setattr(workloads.BatchRunner, "step", flaky_step)
    monkeypatch.setattr(run, "MIN_SETUPS", 1)
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)
    result = run.run_workload("contention-16", 7, 1.0, False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3
    assert "planted failure" in result["problems"][0]


def test_cli_prints_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_SETUPS", 1)
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)
    code = run.main(["--workload", "city-96", "--seconds", "0.3"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    for entry in SPEC["end_to_end"]:
        assert any(
            line.split()[:1] == [entry["name"]] and f" {entry['unit']} " in line
            for line in lines
        ), entry["name"]
    assert any(line.startswith("env {") for line in lines)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]


def _alone(name: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seconds", "0.3"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_all_reports_each_workloads_own_peak_rss(capsys):
    code = run.main(["--workload", "all", "--seconds", "0.3"])
    lines = capsys.readouterr().out.strip().splitlines()
    merged = json.loads(lines[-1])
    assert code == 0 and merged["correct"]
    assert sorted(merged["metrics"]) == sorted(
        f"{name}:{entry['name']}" for name in NAMES for entry in SPEC["end_to_end"]
    )
    # Peak RSS repeats within about 1% from run to run, well inside the
    # metric's bound; sharing one process, serve-sharded would report
    # city-96's larger peak instead of its own.
    bound = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}["peak_rss_mb"]
    tolerance = min(bound, 0.03)
    for name in NAMES:
        alone = _alone(name)["metrics"]["peak_rss_mb"]["value"]
        together = merged["metrics"][f"{name}:peak_rss_mb"]["value"]
        assert abs(together - alone) <= tolerance * alone, (name, together, alone)


def test_peak_rss_is_the_processs_own_not_its_parents():
    blob = bytearray(64 * 2**20)
    blob[::4096] = bytes(len(blob[::4096]))  # touch every page
    parent = run.peak_rss_mb()
    done = subprocess.run(
        [sys.executable, "-c", "import run; print(run.peak_rss_mb())"],
        cwd=run.HERE, capture_output=True, text=True, check=True,
    )
    assert 0 < float(done.stdout) < parent / 2
    del blob


def test_exits_without_result_when_program_source_is_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contention-16",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

