"""The repository benchmark: whole-loop rounds/s, with per-layer traces.

Run from the root of a checkout::

    python3 perfbench/run.py --workload contention-16 --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all   # each workload in its own process

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``:
set-up repeated several times (median reported), then a closed loop of
rounds for ``--seconds`` seconds. Its times, the window included, are
in nominal seconds (:mod:`clock`): the CPU seconds of each round or
set-up, shard workers included, scaled by the host's speed, sampled
with a fixed kernel just before and after it. So neither a host that
boosts its clock for part of a run nor one that lends the CPU to other
tenants reads as a change of the program. The wall-clock figures and
the speeds sampled are printed alongside.
``--trace 1`` steps an untraced and
a traced copy of the workload in alternating blocks of rounds, the
untraced one for half the window, records every layer call of the
traced copy as a span (:mod:`spans`), and reports the per-layer
metrics with a self-time table.

Every run checks its output: zero monitor violations, and an end state
(``state_digest``, produced and consumed counts) equal to a twin run of
the same inputs on a second engine; the traced copy must also match
the untraced one. On a mismatch every operation counts as failed and
the exit code is 1. Without the program source (``src/repro``) the run
exits with code 2 and prints no result.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give each metric with its unit and sample count, and an environment
stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

from clock import HostClock, cpu_spent, cpu_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Working space for the serve workload's on-disk sink (emptied per run).
WORKDIR = HERE / "_work"

#: Set-up is timed in two batches, before and after the measuring
#: window, so its median spans two moments of the host. The first batch
#: repeats until MIN_SETUPS samples and SETUP_BUDGET_S seconds (capped
#: at MAX_SETUPS); the second repeats as often as the first.
MIN_SETUPS = 3
SETUP_BUDGET_S = 0.5
MAX_SETUPS = 50

#: Rounds per block when the traced run alternates with the untraced one.
TRACE_BLOCK = 50


def import_program() -> bool:
    """Put the checkout's ``src`` on the import path.

    Returns False when the program source is missing. ``REPRO_*``
    variables are dropped first, so the environment cannot switch the
    engine, shard layout or observability of a workload (shard workers
    inherit the environment).
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return True


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


class Run:
    """Operations and outcome of one measured runner."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.durations: List[float] = []
        #: Each round's CPU seconds and host speed (:mod:`clock`), when
        #: the loop had a host clock.
        self.costs: List[float] = []
        self.speeds: List[float] = []
        self.window = 0.0
        self.outcome = None
        self.error: Optional[str] = None

    def nominal(self) -> List[float]:
        """The rounds' times in nominal seconds."""
        return [cost * speed for cost, speed in zip(self.costs, self.speeds)]

    def record(self, ops_failed) -> None:
        ops, failed = ops_failed
        self.attempted += ops
        self.failed += failed


def _timed_loop(
    run: Run,
    step: Callable[[], tuple],
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    host: Optional[HostClock] = None,
) -> None:
    """Call ``step`` for ``seconds`` seconds or exactly ``rounds`` times.

    Durations and the elapsed window add to ``run``'s. With a ``host``
    clock, sampled between rounds, so do each round's CPU seconds and
    speed (the mean of the samples just before and after it), and
    ``seconds`` counts nominal seconds of rounds: a run does the same
    work whatever the host's speed, which matters because a round's cost
    grows as a run goes on. A round that raises counts as one failed
    operation and ends the loop (its state is undefined afterwards).
    """
    start = time.perf_counter()
    if host is not None:
        before = host.sample()
        cpu = cpu_times()
    now = time.perf_counter()
    elapsed = 0.0
    index = 0
    try:
        while (seconds is not None and elapsed < seconds) or (
            rounds is not None and index < rounds
        ):
            index += 1
            run.record(step())
            end = time.perf_counter()
            run.durations.append(end - now)
            if host is None:
                elapsed = end - start
            else:
                run.costs.append(cpu_spent(cpu, cpu_times()))
                after = host.sample()
                run.speeds.append((before + after) / 2)
                elapsed += run.costs[-1] * run.speeds[-1]
                before = after
                cpu = cpu_times()
                end = time.perf_counter()
            now = end
    except Exception:
        run.attempted += 1
        run.failed += 1
        run.error = traceback.format_exc()
    run.window += now - start


def _finish(run: Run, runner) -> None:
    """Finish the runner into ``run.outcome``; after a failed round,
    only release what it holds (shard workers, the sink)."""
    if run.error is None:
        try:
            run.outcome = runner.finish()
            return
        except Exception:
            run.error = traceback.format_exc()
    runner.release()


def _setup(
    workload, seed: int, reps: Optional[int] = None, host: Optional[HostClock] = None
) -> tuple:
    """Time set-up (config to first completed round) ``reps`` times, or
    until :data:`MIN_SETUPS` samples and :data:`SETUP_BUDGET_S` seconds.

    Returns the last runner (kept for use), the samples (in wall
    seconds, or with a ``host`` clock, sampled around each, in nominal
    seconds), and the ``(operations, failed)`` of its first round.
    """
    samples: List[float] = []
    spent = 0.0
    runner = None

    def more() -> bool:
        if reps is not None:
            return len(samples) < reps
        return len(samples) < MAX_SETUPS and (
            len(samples) < MIN_SETUPS or spent < SETUP_BUDGET_S
        )

    while more():
        if runner is not None:
            runner.release()
        runner = workload.make(seed, WORKDIR)
        before = host.sample() if host is not None else None
        cpu = cpu_times()
        started = time.perf_counter()
        runner.build()
        first = runner.step()
        elapsed = time.perf_counter() - started
        if host is None:
            samples.append(elapsed)
        else:
            cost = cpu_spent(cpu, cpu_times())
            samples.append(cost * (before + host.sample()) / 2)
        spent += elapsed
    return runner, samples, first


def check_outputs(outcome, twin, traced=None) -> List[str]:
    """The output check; returns the mismatches found (empty when correct)."""
    if outcome is None:
        return ["the measured run did not finish"]
    problems = list(outcome.problems)
    if outcome.violations:
        problems.append(f"{outcome.violations} monitor violation(s)")
    for other, label in ((twin, "twin engine"), (traced, "traced replay")):
        if other is None:
            continue
        problems.extend(other.problems)
        for field in ("rounds", "digest", "produced", "consumed"):
            mine, theirs = getattr(outcome, field), getattr(other, field)
            if mine != theirs:
                problems.append(f"{field} {mine!r} != {label} {theirs!r}")
    return problems


def quantile(values: List[float], fraction: float) -> float:
    """Interpolated quantile (``statistics.quantiles``' inclusive method)."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def measure(workload, seed: int, seconds: float) -> Dict:
    """The untraced run: end-to-end metrics and the output check."""
    from workloads import ServeRunner, run_twin

    run = Run()
    host = HostClock()
    runner, setups, first = _setup(workload, seed, host=host)
    run.record(first)
    _timed_loop(run, runner.step, seconds=seconds, host=host)
    peak_rss = peak_rss_mb()
    workers_peak_rss = children_peak_rss_mb()
    _finish(run, runner)
    later, more_setups, _ = _setup(workload, seed, reps=len(setups), host=host)
    later.release()
    setups += more_setups
    twin = run_twin(workload, seed, run.outcome.rounds) if run.outcome else None
    problems = check_outputs(run.outcome, twin)
    rounds = len(run.durations)
    nominal = run.nominal()
    busy, wall = sum(nominal), sum(run.durations)
    metrics = {
        "rounds_per_s": (rounds / busy if busy else 0.0, "1/s"),
        "round_ms_p50": (quantile(nominal, 0.5) * 1e3, "ms"),
        "round_ms_p90": (quantile(nominal, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    notes = {
        "rounds_per_s": f"{rounds} rounds in {busy:.3f} nominal s "
        f"(wall clock: {rounds / wall if wall else 0.0:.2f}/s in {wall:.3f} s)",
        "round_ms_p50": f"n={rounds} (wall clock: {quantile(run.durations, 0.5) * 1e3:.3f})",
        "round_ms_p90": f"n={rounds} (wall clock: {quantile(run.durations, 0.9) * 1e3:.3f})",
        "setup_s": f"median of {len(setups)}",
    }
    speeds = host.speeds
    extra = {
        "host_speed_p50": (quantile(speeds, 0.5), "ratio",
                           f"n={len(speeds)}, p10 {quantile(speeds, 0.1):.3f}, "
                           f"p90 {quantile(speeds, 0.9):.3f}"),
    }
    if isinstance(runner, ServeRunner):
        latencies = runner.ack_latencies()
        if latencies:
            extra["ack_ms_p50"] = (quantile(latencies, 0.5) * 1e3, "ms", f"n={len(latencies)}")
            extra["ack_ms_p90"] = (quantile(latencies, 0.9) * 1e3, "ms", f"n={len(latencies)}")
        extra["worker_peak_rss_mb"] = (workers_peak_rss, "MB", "largest shard worker")
    return _result(run, problems, metrics, notes, extra)


def peak_rss_mb(pid="self") -> float:
    """Peak resident memory of a process since it started its program
    (``VmHWM``). ``ru_maxrss`` would not do: a process starts with the
    peak of the parent that forked it, so it could report the peak of
    whatever launched the benchmark, or a shard worker the coordinator's.
    """
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise ValueError(f"no VmHWM for process {pid}")


def children_peak_rss_mb() -> float:
    """The largest :func:`peak_rss_mb` among this process's live children:
    the shard workers are the only processes a workload starts."""
    me, peaks = os.getpid(), [0.0]
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ...": comm may hold spaces.
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == me:
                peaks.append(peak_rss_mb(stat.parent.name))
        except (OSError, ValueError, IndexError):
            continue  # the process ended meanwhile
    return max(peaks)


def _result(run: Run, problems, metrics, notes, extra, table=()) -> Dict:
    if run.error is not None:
        problems = [f"a round raised:\n{run.error}"] + problems
    correct = not problems
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if correct else max(run.attempted, 1),
        "metrics": metrics,
        "notes": notes,
        "extra": extra,
        "problems": problems,
        "table": list(table),
    }


def start_traced(workload, seed: int):
    """Build the workload with every layer wrapped and run its set-up round.

    Returns the :class:`spans.LayerTrace`, the :class:`Run` and the runner.
    """
    from spans import LayerTrace
    from workloads import ServeRunner
    from repro.sim.simulator import build_simulation

    layer = LayerTrace()
    run = Run()
    runner = workload.make(seed, WORKDIR)
    with layer.patched_classes():
        layer.recorder.round = 0
        if isinstance(runner, ServeRunner):
            runner.build()
            layer.instrument_service(runner.service)
        else:
            runner.build(layer.recorder.wrap("sim.build", build_simulation))
            layer.instrument_simulator(runner.simulator)
        run.record(runner.step())
    layer.start_counting()
    return layer, run, runner


def traced_replay(workload, seed: int, rounds: int):
    """The set-up round and ``rounds`` more, with every layer call a span."""
    layer, run, runner = start_traced(workload, seed)
    with layer.patched_classes():
        _timed_loop(run, partial(layer.step, runner), rounds=rounds)
        layer.recorder.round = -1
        _finish(run, runner)
    return layer, run


def trace(workload, seed: int, seconds: float) -> Dict:
    """The traced run: per-layer metrics, checked against an untraced run.

    An untraced and a traced runner of the same inputs step in
    alternating blocks of :data:`TRACE_BLOCK` rounds until the untraced
    one has run ``seconds / 2``, so host speed drift hits both alike and
    their rates give the tracing overhead.
    """
    from workloads import RELOCATE_AT, ServeRunner, run_twin

    untraced = Run()
    plain, _, first = _setup(workload, seed, reps=1)
    untraced.record(first)
    layer, traced, instrumented = start_traced(workload, seed)
    while untraced.error is None and traced.error is None and untraced.window < seconds / 2:
        _timed_loop(untraced, plain.step, rounds=TRACE_BLOCK)
        with layer.patched_classes():
            _timed_loop(traced, partial(layer.step, instrumented), rounds=TRACE_BLOCK)
    layer.recorder.round = -1
    workers_peak_rss = children_peak_rss_mb()
    with layer.patched_classes():
        _finish(traced, instrumented)
    _finish(untraced, plain)
    is_serve = isinstance(plain, ServeRunner)
    acks = plain.ack_latencies() if is_serve else []
    rounds = len(untraced.durations)
    twin = (
        run_twin(workload, seed, untraced.outcome.rounds)
        if untraced.outcome is not None
        else None
    )
    problems = check_outputs(untraced.outcome, twin, traced.outcome)
    if traced.outcome is None:
        problems.append("the traced replay did not finish")
    values = layer.layer_metrics(relocate_round=RELOCATE_AT if is_serve else None)
    untraced_rate = rounds / untraced.window if untraced.window else 0.0
    traced_rate = len(traced.durations) / traced.window if traced.window else 0.0
    values["trace.rate_ratio"] = traced_rate / untraced_rate if untraced_rate else 0.0
    values["serve.ack_ms_p50"] = quantile(acks, 0.5) * 1e3 if acks else 0.0
    values["serve.ack_ms_p90"] = quantile(acks, 0.9) * 1e3 if acks else 0.0
    values["shard.worker_peak_rss_mb"] = workers_peak_rss
    units = {entry["name"]: entry["unit"] for entry in benchmark_spec()["per_layer"]}
    metrics = {name: (values[name], units[name]) for name in units}
    notes = {
        "trace.rate_ratio": f"{traced_rate:.2f} / {untraced_rate:.2f} rounds/s over {rounds} rounds",
    }
    if acks:
        notes["serve.ack_ms_p50"] = notes["serve.ack_ms_p90"] = f"n={len(acks)}"
    combined = Run()
    combined.attempted = untraced.attempted + traced.attempted
    combined.failed = untraced.failed + traced.failed
    combined.error = untraced.error or traced.error
    return _result(combined, problems, metrics, notes, {}, table=layer.self_time_table())


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def benchmark_spec() -> Dict:
    """The checkout's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_of(span_name: str) -> str:
    """The ``repro`` module a span times (``engine.step`` is core's)."""
    prefix = span_name.split(".", 1)[0]
    return {"engine": "core", "sink": "serve"}.get(prefix, prefix)


def rationale_verdict(table, dominant) -> str:
    """Does the workload's named span group out-weigh every other layer?"""
    group = sum(ms for name, ms in table if name.startswith(dominant))
    grouped = {layer_of(name) for name in dominant}
    others: Dict[str, float] = {}
    for name, ms in table:
        if not name.startswith(dominant):
            layer = layer_of(name)
            label = f"{layer} (other spans)" if layer in grouped else layer
            others[label] = others.get(label, 0.0) + ms
    rival, rival_ms = max(others.items(), key=lambda item: item[1], default=("-", 0.0))
    verdict = "holds" if group > rival_ms else "differs"
    return (
        f"rationale {'+'.join(dominant)} = {group:.3f} ms/round vs largest other "
        f"layer {rival} = {rival_ms:.3f} ms/round: {verdict}"
    )


def environment(workload: str, seed: int, cpus=None) -> Dict:
    """The environment stamp printed with every result (``cpus``: the
    CPUs the workload ran on)."""
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "--no-optional-locks", "-C", str(ROOT), "status",
                 "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpus": cpus,
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
    }


def report(name: str, seed: int, result: Dict, trace_mode: bool, dominant) -> None:
    """Human-readable lines for one workload (before the result line)."""
    print(f"== {name} seed={seed} trace={int(trace_mode)}")
    for metric, (value, unit) in result["metrics"].items():
        note = result["notes"].get(metric, "")
        print(f"  {metric:<26} {value:>12.4f} {unit:<6} {note}")
    for metric, (value, unit, note) in result["extra"].items():
        print(f"  {metric:<26} {value:>12.4f} {unit:<6} {note}")
    print(
        f"  {'failed_share':<26} {result['failed'] / result['attempted']:>12.4f} "
        f"{'ratio':<6} {result['failed']}/{result['attempted']} operations"
    )
    if result["table"]:
        total = sum(ms for _, ms in result["table"]) or 1.0
        print(f"  self time per round ({total:.3f} ms/round)")
        for span, ms in result["table"]:
            print(f"    {span:<24} {ms:>9.3f} ms {100 * ms / total:6.1f}%")
        layers: Dict[str, float] = {}
        for span, ms in result["table"]:
            layers[layer_of(span)] = layers.get(layer_of(span), 0.0) + ms
        print("    layers: " + ", ".join(
            f"{layer} {100 * ms / total:.1f}%"
            for layer, ms in sorted(layers.items(), key=lambda item: -item[1])
        ))
        print("  " + rationale_verdict(result["table"], dominant))
    for problem in result["problems"]:
        print(f"  OUTPUT CHECK FAILED: {problem}")
    print("env " + json.dumps(environment(name, seed, result.get("cpus")), sort_keys=True))


def run_workload(name: str, seed: int, seconds: float, trace_mode: bool) -> Dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    cpus = os.sched_getaffinity(0)
    if workload.one_cpu:
        # Shard workers inherit the affinity when they are spawned.
        os.sched_setaffinity(0, {min(cpus)})
    try:
        if trace_mode:
            result = trace(workload, seed, seconds)
        else:
            result = measure(workload, seed, seconds)
        result["cpus"] = sorted(os.sched_getaffinity(0))
        return result
    finally:
        os.sched_setaffinity(0, cpus)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()


def run_each(names: List[str], args, seconds: float) -> int:
    """``--workload all``: every workload in a child process of its own.

    ``ru_maxrss`` is the high-water mark of the whole process, so a
    workload sharing a process with the ones before it would report
    their peak. Each child's lines are passed through; the result lines
    are merged, metrics prefixed with ``<workload>:``.
    """
    metrics: Dict[str, Dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", repr(seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        print("\n".join(lines if result is None else lines[:-1]), flush=True)
        if result is None or done.returncode not in (0, 1):
            print(f"  {name}: no result (exit code {done.returncode})")
            correct = False
            attempted, failed = attempted + 1, failed + 1
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}:{metric}"] = value
    final = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(final))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_program():
        print(f"perfbench: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; available: {sorted(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_each(list(WORKLOADS), args, seconds)
    name = args.workload
    seed = args.seed if args.seed is not None else WORKLOADS[name].default_seed
    try:
        result = run_workload(name, seed, seconds, bool(args.trace))
    except Exception:  # set-up or the check itself raised: a failed run
        failed = Run()
        failed.error = traceback.format_exc()
        result = _result(failed, [], {}, {}, {})
    report(name, seed, result, bool(args.trace), WORKLOADS[name].dominant)
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in result["metrics"].items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
