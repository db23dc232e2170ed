"""``cellularflows`` — run, watch, and reproduce the paper's experiments.

Subcommands
-----------

``run``         one corridor simulation, printing the summary
``watch``       a short run with live ASCII rendering of the grid
``experiment``  reproduce a figure (fig7 / fig8 / fig9): table, plot, checks
``ablation``    run one of the design-choice ablations
``trace``       record a run to JSON-lines and re-verify it offline
                (``--events`` additionally records protocol events)
``report``      summarize a protocol-event trace (text / JSON / CSV)
``svg``         render a run's final state to an SVG file
``fuzz``        deterministic scenario fuzzing: ``run`` a seed range
                against the oracle registry, ``shrink`` a violating
                scenario to a minimal repro, ``replay`` a repro artifact
``serve``       run the simulation as a long-lived service: commands in
                (``--command-file`` JSONL), batched events out
                (``--sink stdout|jsonl|sqlite``); see docs/serving.md
``list``        list registered experiments

Observability toggles (see ``docs/observability.md``): set
``REPRO_METRICS=1`` to collect protocol metrics into every result, and
``REPRO_TRACE=<path>`` to stream protocol events as JSONL.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.ascii_plot import line_plot
from repro.analysis.tables import format_series_table
from repro.core.params import Parameters
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction, Grid
from repro.multiflow import MULTIFLOW_ENGINES
from repro.multiflow.commodities import default_commodities
from repro.multiflow.workload import WORKLOAD_PROFILES
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.engine import ENGINES, ENV_ENGINE
from repro.sim.simulator import build_simulation
from repro.viz.render import render_grid, render_routes


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", type=int, default=8, help="grid side N (default 8)")
    parser.add_argument("--length", type=int, default=8, help="corridor length in cells")
    parser.add_argument("--turns", type=int, default=0, help="turns along the corridor")
    parser.add_argument("--rounds", type=int, default=2500, help="rounds K")
    parser.add_argument("--l", type=float, default=0.25, help="entity side length")
    parser.add_argument("--rs", type=float, default=0.05, help="safety spacing")
    parser.add_argument("--v", type=float, default=0.2, help="cell velocity")
    parser.add_argument("--pf", type=float, default=0.0, help="per-round failure prob")
    parser.add_argument("--pr", type=float, default=0.0, help="per-round recovery prob")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-monitors", action="store_true", help="skip runtime verification"
    )
    parser.add_argument(
        "--engine",
        choices=["reference", "incremental", "vectorized", "timed", "sharded"],
        default=None,
        help="round engine: full-sweep reference, dirty-set incremental, "
        "array-native vectorized, timed asynchronous rounds, "
        "or multi-process sharded districts "
        "(byte-identical results; default: REPRO_ENGINE, then reference)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="district count for --engine sharded (default: REPRO_SHARDS, "
        "then 2); ignored by the in-process engines",
    )
    parser.add_argument(
        "--commodities",
        type=int,
        default=0,
        metavar="N",
        help="multi-commodity mode: run N concurrent crossing commodities "
        "(repro.multiflow) instead of the single corridor; supports "
        "--engine reference/incremental only (see docs/multiflow.md)",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOAD_PROFILES),
        default=None,
        help="demand schedule for --commodities (default: steady)",
    )


def _build_config(args: argparse.Namespace) -> SimulationConfig:
    commodities = getattr(args, "commodities", 0)
    _check_engine(args.engine, commodities)
    if commodities:
        try:
            return SimulationConfig(
                grid_width=args.grid,
                params=Parameters(l=args.l, rs=args.rs, v=args.v),
                rounds=args.rounds,
                commodities=default_commodities(args.grid, commodities),
                workload=args.workload,
                fault=FaultSpec(pf=args.pf, pr=args.pr, protect_target=True),
                seed=args.seed,
                monitors=not args.no_monitors,
                engine=args.engine,
                shards=args.shards,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
    if args.workload is not None:
        raise SystemExit("--workload requires --commodities")
    try:
        grid = Grid(args.grid)
        if args.turns > 0:
            path = turns_path((0, 0), args.length, args.turns)
        else:
            path = straight_path((1, 0), Direction.NORTH, args.length)
    except ValueError as exc:
        raise SystemExit(str(exc))
    outside = [cell for cell in path.cells if not grid.contains(cell)]
    if outside:
        raise SystemExit(
            f"the corridor (--length {args.length}, --turns {args.turns}) "
            f"does not fit a {args.grid}x{args.grid} grid: cell {outside[0]} "
            f"is off the grid"
        )
    faults = FaultSpec(pf=args.pf, pr=args.pr)
    return SimulationConfig(
        grid_width=args.grid,
        params=Parameters(l=args.l, rs=args.rs, v=args.v),
        rounds=args.rounds,
        path=path.cells,
        fail_complement=not faults.enabled,
        fault=faults,
        seed=args.seed,
        monitors=not args.no_monitors,
        engine=args.engine,
        shards=args.shards,
    )


def _check_engine(flag: Optional[str], commodities: int) -> None:
    """Exit with a one-line usage error when the engine named by
    ``--engine`` or, failing that, ``REPRO_ENGINE`` is unknown, or cannot
    run a multi-commodity system."""
    name = flag or os.environ.get(ENV_ENGINE)
    if name is None:
        return
    named_by = f"--engine {name}" if flag else f"{ENV_ENGINE}={name}"
    if name not in ENGINES:
        raise SystemExit(
            f"{named_by}: unknown round engine; choose from {', '.join(ENGINES)}"
        )
    if commodities and name not in MULTIFLOW_ENGINES:
        raise SystemExit(
            f"{named_by}: multi-commodity runs (--commodities) support only the "
            f"{' and '.join(MULTIFLOW_ENGINES)} engines"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    simulator = build_simulation(_build_config(args))
    result = simulator.run()
    print(f"rounds:             {result.rounds}")
    print(f"produced:           {result.produced}")
    print(f"consumed:           {result.consumed}")
    print(f"throughput:         {result.throughput:.4f}")
    print(f"in flight:          {result.in_flight}")
    if result.mean_latency is not None:
        print(f"mean latency:       {result.mean_latency:.1f} rounds")
        print(f"p95 latency:        {result.p95_latency} rounds")
    print(f"mean blocked cells: {result.mean_blocked_cells:.2f}")
    print(f"failures/recovs:    {result.total_failures}/{result.total_recoveries}")
    print(f"monitor violations: {result.monitor_violations}")
    system = simulator.system
    if getattr(system, "is_multiflow", False):
        in_flight = system.in_flight_by_commodity()
        print("commodities (produced/consumed/in-flight):")
        for name in system.table.names():
            print(
                f"  {name}: {system.produced_by_commodity[name]}"
                f"/{system.consumed_by_commodity[name]}"
                f"/{in_flight[name]}"
            )
    if result.metrics is not None:
        counters = result.metrics.get("counters", {})
        print("metrics (REPRO_METRICS):")
        for name, value in counters.items():
            if "{" in name:
                continue  # labeled series: use trace --events + report
            print(f"  {name}: {value}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    simulator = build_simulation(_build_config(args))
    every = max(1, args.rounds // args.frames)
    for round_index in range(args.rounds):
        simulator.step()
        if round_index % every == 0 or round_index == args.rounds - 1:
            print(f"--- round {round_index} "
                  f"(consumed so far: {simulator.meter.total_consumed}) ---")
            print(render_grid(simulator.system))
            if args.routes:
                print(render_routes(simulator.system))
    return 0


#: Exit code when sweep points failed structurally (supervision exhausted
#: their retries) — distinct from 1, which means a shape check failed.
EXIT_POINTS_FAILED = 3


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.sim.supervisor import PointFailureError

    experiment = get_experiment(args.name)
    rounds = args.rounds  # None = the paper's horizon
    print(f"# {experiment.name}: {experiment.description}")
    effective = rounds if rounds is not None else experiment.paper_rounds
    print(f"# horizon: {effective} rounds per point")
    checkpoint = Path(args.checkpoint) if args.checkpoint else None
    if args.resume and checkpoint is None:
        # Resuming without an explicit file: use the conventional location
        # (written by the previous run if it passed --resume/--checkpoint).
        checkpoint = Path(args.out or ".") / f"{experiment.name}.checkpoint.jsonl"
    if args.workers != 1:
        print(f"# workers: {args.workers}", file=sys.stderr)
    try:
        result = experiment.run(
            rounds=rounds,
            progress=lambda message: print(message, file=sys.stderr),
            workers=args.workers,
            checkpoint=checkpoint,
            resume=args.resume,
            point_timeout=args.point_timeout,
            max_retries=args.max_retries,
            strict=args.strict,
        )
    except PointFailureError as error:
        print(f"strict mode abort: {error}", file=sys.stderr)
        return EXIT_POINTS_FAILED
    if result.failures:
        for failure in result.failures:
            print(
                f"FAILED point {failure.label}: {failure.kind} after "
                f"{failure.attempts} attempt(s) — {failure.error_type}: "
                f"{failure.message}",
                file=sys.stderr,
            )
        print(
            f"# {len(result.failures)} of "
            f"{len(result.runs) + len(result.failures)} points failed; "
            f"tables and shape checks skipped",
            file=sys.stderr,
        )
        if args.out:
            out_dir = Path(args.out)
            json_path = result.save_json(out_dir / f"{experiment.name}.json")
            csv_path = result.save_csv(out_dir / f"{experiment.name}.csv")
            print(f"saved {json_path} and {csv_path} (partial)")
        return EXIT_POINTS_FAILED
    curves = experiment.series(result)
    x_label = {
        "fig7": "rs",
        "fig8": "turns",
        "fig9": "pf",
        "pathlen": "length",
    }[experiment.name]
    print(format_series_table(curves, x_label=x_label))
    print()
    print(line_plot(curves, x_label=x_label, y_label="throughput"))
    print()
    checks = experiment.shape_checks(result)
    for name, passed in checks.items():
        print(f"shape check {name}: {'PASS' if passed else 'FAIL'}")
    if args.out:
        out_dir = Path(args.out)
        json_path = result.save_json(out_dir / f"{experiment.name}.json")
        csv_path = result.save_csv(out_dir / f"{experiment.name}.csv")
        print(f"saved {json_path} and {csv_path}")
    return 0 if all(checks.values()) else 1


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.experiments import ablations

    if args.name == "token":
        rows = ablations.token_policy_ablation(rounds=args.rounds)
        print(
            format_table(
                ["policy", "throughput", "fairness"],
                [(r.policy, r.throughput, r.fairness) for r in rows],
            )
        )
    elif args.name == "unsafe":
        rows = ablations.unsafe_ablation(rounds=args.rounds)
        print(
            format_table(
                ["variant", "throughput", "safety violations"],
                [(r.variant, r.throughput, r.safety_violations) for r in rows],
            )
        )
    elif args.name == "centralized":
        rows = ablations.centralized_ablation(rounds=args.rounds)
        print(
            format_table(
                ["variant", "throughput", "outage rounds"],
                [(r.variant, r.throughput, r.outage_rounds) for r in rows],
            )
        )
    else:
        rows = ablations.source_policy_ablation(rounds=args.rounds)
        print(
            format_table(
                ["policy", "offered", "produced", "throughput"],
                [(r.policy, r.offered, r.produced, r.throughput) for r in rows],
            )
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.instrument import ObservabilityConfig
    from repro.sim.trace import TraceRecorder, replay_throughput, verify_trace

    observability = None
    if args.events:
        # Protocol-event tracing rides along with the state trace; metrics
        # come too so the event counts can be printed at the end.
        observability = ObservabilityConfig(metrics=True, trace_path=args.events)
    simulator = build_simulation(_build_config(args), observability=observability)
    recorder = TraceRecorder.for_system(simulator.system)
    for _ in range(args.rounds):
        report = simulator.step()
        recorder.observe(simulator.system, report)
    trace_path = recorder.save(args.out)
    print(f"trace written: {trace_path} ({args.rounds} rounds)")
    if simulator.obs is not None and simulator.obs.tracer is not None:
        simulator.obs.finalize()
        events_path = simulator.obs.tracer.sink.path
        print(
            f"events written: {events_path} "
            f"({simulator.obs.tracer.total_events} events; "
            f"summarize with `cellularflows report {events_path}`)"
        )
    violations = verify_trace(trace_path)
    print(f"offline verification: {len(violations)} violations")
    print(f"replayed throughput:  {replay_throughput(trace_path):.4f}")
    return 0 if not violations else 1


#: Exit code for an unreadable/mismatched trace file (``report``) —
#: distinct from 1, which means the file was read but is empty.
EXIT_BAD_TRACE = 2


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.exporters import (
        TraceSchemaError,
        load_events,
        render_report,
        save_summary_csv,
        save_summary_json,
        summarize_events,
    )

    try:
        header, events = load_events(args.trace)
    except FileNotFoundError:
        print(f"report: no such trace file: {args.trace}", file=sys.stderr)
        return EXIT_BAD_TRACE
    except TraceSchemaError as error:
        print(f"report: {error}", file=sys.stderr)
        return EXIT_BAD_TRACE
    summary = summarize_events(header, events)
    print(render_report(summary))
    if args.json:
        print(f"summary written: {save_summary_json(summary, args.json)}")
    if args.csv:
        print(f"summary written: {save_summary_csv(summary, args.csv)}")
    return 0 if summary["events_total"] else 1


def _cmd_svg(args: argparse.Namespace) -> int:
    from repro.viz.svg import save_svg

    simulator = build_simulation(_build_config(args))
    for _ in range(args.rounds):
        simulator.step()
    path = save_svg(
        simulator.system,
        args.out,
        title=f"round {args.rounds}, consumed {simulator.meter.total_consumed}",
    )
    print(f"svg written: {path}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name, experiment in sorted(EXPERIMENTS.items()):
        print(f"{name:8s} {experiment.description}")
    return 0


EXIT_FUZZ_VIOLATIONS = 4

#: Exit code when `serve` rejected any command (bad JSON, unknown
#: version/command, wrong fields) — distinct from 1, which means the
#: service ran clean but streamed live monitor violations.
EXIT_BAD_COMMAND = 5


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import FileCommandSource, ServeService, make_sink

    config = _build_config(args)
    if args.sink != "stdout" and not args.sink_path:
        print(
            f"serve: --sink {args.sink} requires --sink-path "
            f"(a directory for jsonl, a database file for sqlite)",
            file=sys.stderr,
        )
        return EXIT_BAD_COMMAND
    sink = make_sink(args.sink, path=args.sink_path)
    source = (
        FileCommandSource(args.command_file) if args.command_file else None
    )
    service = ServeService(
        config,
        sink,
        source=source,
        batch_size=args.batch_size,
        buffer_capacity=args.buffer_capacity,
        backpressure=args.backpressure,
        snapshot_every=args.snapshot_every,
        max_rounds=args.max_rounds,
    )
    try:
        service.run()
    except KeyboardInterrupt:
        # Operator stop is a normal shutdown: drain and close cleanly.
        service.finish()
    stats = service.stats()
    buffer = stats["buffer"]
    print(
        f"serve: {stats['rounds_served']} rounds, "
        f"{stats['commands_applied']} commands "
        f"({stats['command_errors']} rejected), "
        f"{buffer['delivered']} events delivered in {buffer['batches']} "
        f"batches ({buffer['dropped']} dropped), "
        f"{stats['violations']} violations "
        f"[stop: {stats['stop_reason']}]",
        file=sys.stderr,
    )
    if stats["command_errors"]:
        return EXIT_BAD_COMMAND
    if stats["violations"]:
        return 1
    return 0


def _parse_seed_range(spec: str) -> List[int]:
    """``START:COUNT`` (or a single seed) -> the explicit seed list."""
    if ":" in spec:
        start_text, count_text = spec.split(":", 1)
        start, count = int(start_text), int(count_text)
        if count <= 0:
            raise ValueError(f"seed count must be positive, got {count}")
        return list(range(start, start + count))
    return [int(spec)]


def _parse_oracles(spec: Optional[str]) -> Optional[List[str]]:
    if spec is None:
        return None
    return [name.strip() for name in spec.split(",") if name.strip()]


def _adversary_names() -> List[str]:
    """Registered adversary classes (lazy: parser building stays cheap)."""
    from repro.adversary.scripts import ADVERSARIES

    return sorted(ADVERSARIES)


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzz.campaign import run_campaign
    from repro.fuzz.generator import generate_scenario
    from repro.fuzz.shrink import shrink_scenario, write_repro

    seeds = _parse_seed_range(args.seeds)
    progress = (lambda line: print(line, file=sys.stderr)) if args.verbose else (
        lambda line: None
    )
    result = run_campaign(
        seeds,
        oracle_names=_parse_oracles(args.oracles),
        workers=args.workers,
        point_timeout=args.point_timeout,
        max_retries=args.max_retries,
        progress=progress,
        adversary=args.adversary,
    )
    summary = result.summary_json()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(summary)
    print(summary, end="")
    for outcome in result.failures:
        if args.shrink and args.repro_dir:
            shrunk = shrink_scenario(
                generate_scenario(outcome.seed, adversary=args.adversary),
                oracle_names=_parse_oracles(args.oracles),
            )
            path = write_repro(shrunk, args.repro_dir)
            print(f"seed {outcome.seed}: shrunk repro written: {path}", file=sys.stderr)
    if result.errors:
        return EXIT_POINTS_FAILED
    if result.failures:
        return EXIT_FUZZ_VIOLATIONS
    return 0


def _cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    from repro.fuzz.generator import Scenario, generate_scenario
    from repro.fuzz.shrink import load_repro, shrink_scenario, write_repro

    if args.seed is not None:
        scenario = generate_scenario(args.seed, adversary=args.adversary)
    else:
        # Exit 2 on an unreadable/wrong-kind artifact, matching `report`.
        try:
            scenario = Scenario.from_dict(load_repro(args.repro)["scenario"])
        except (OSError, ValueError) as error:
            print(f"shrink: {error}", file=sys.stderr)
            return 2
    try:
        result = shrink_scenario(scenario, oracle_names=_parse_oracles(args.oracles))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    path = write_repro(result, args.out)
    print(f"shrunk in {len(result.steps)} steps ({result.checks} oracle checks):")
    for step in result.steps:
        print(f"  - {step}")
    for violation in result.violations:
        print(f"  violation: {violation.to_dict()}")
    print(f"repro written: {path}")
    return 0


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzz.shrink import replay_repro

    # Exit 2 on an unreadable/wrong-kind artifact (e.g. a corpus
    # scenario, which is not a repro), matching `report`; exit 1 is
    # reserved for "loads fine but no longer reproduces".
    try:
        artifact, recomputed = replay_repro(
            args.repro, oracle_names=_parse_oracles(args.oracles)
        )
    except (OSError, ValueError) as error:
        print(f"replay: {error}", file=sys.stderr)
        return 2
    recorded = artifact["violations"]
    replayed = [violation.to_dict() for violation in recomputed]
    if replayed == recorded:
        print(f"reproduces: {len(replayed)} violation(s), identical to the artifact")
        for violation in replayed:
            print(f"  {violation}")
        return 0
    print("does NOT reproduce: oracles now report")
    for violation in replayed:
        print(f"  {violation}")
    print("but the artifact recorded")
    for violation in recorded:
        print(f"  {violation}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="cellularflows",
        description="Safe and Stabilizing Distributed Cellular Flows (ICDCS 2010) "
        "— reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one corridor simulation")
    _add_run_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    watch_parser = subparsers.add_parser("watch", help="run with ASCII rendering")
    _add_run_arguments(watch_parser)
    watch_parser.add_argument("--frames", type=int, default=10, help="snapshots to show")
    watch_parser.add_argument("--routes", action="store_true", help="also show routes")
    watch_parser.set_defaults(handler=_cmd_watch)

    experiment_parser = subparsers.add_parser(
        "experiment", help="reproduce a paper figure"
    )
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment_parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="override the per-point horizon (default: the paper's K)",
    )
    experiment_parser.add_argument("--out", help="directory for JSON/CSV artifacts")
    experiment_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run sweep points over N processes (0 = one per CPU; default 1)",
    )
    experiment_parser.add_argument(
        "--checkpoint",
        help="JSON-lines file recording each completed sweep point "
        "(default: <out>/<name>.checkpoint.jsonl when --resume is given)",
    )
    experiment_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip sweep points already recorded in the checkpoint file "
        "(a torn final line is dropped and re-run; records whose config "
        "fingerprint changed are rejected)",
    )
    experiment_parser.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        help="wall-clock seconds per point attempt; a point that exceeds it "
        "has its worker killed and the attempt counts as failed",
    )
    experiment_parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-runs per failing point before it is recorded as a "
        "structured failure (default 2; retries are bit-identical re-runs "
        "of the same seeded config)",
    )
    experiment_parser.add_argument(
        "--strict",
        action="store_true",
        help="fail fast: abort the sweep on the first point that exhausts "
        "its retries instead of degrading gracefully (exit code 3 either way "
        "when points fail)",
    )
    experiment_parser.set_defaults(handler=_cmd_experiment)

    ablation_parser = subparsers.add_parser(
        "ablation", help="run a design-choice ablation"
    )
    ablation_parser.add_argument(
        "name", choices=["token", "unsafe", "centralized", "source"]
    )
    ablation_parser.add_argument("--rounds", type=int, default=1500)
    ablation_parser.set_defaults(handler=_cmd_ablation)

    trace_parser = subparsers.add_parser(
        "trace", help="record a run to JSON-lines and verify it offline"
    )
    _add_run_arguments(trace_parser)
    trace_parser.add_argument("--out", default="trace.jsonl", help="output file")
    trace_parser.add_argument(
        "--events",
        default=None,
        help="also record protocol events (RouteChanged, SignalGranted, ...) "
        "to this JSONL file; summarize it with the `report` subcommand",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    report_parser = subparsers.add_parser(
        "report", help="summarize a protocol-event trace"
    )
    report_parser.add_argument(
        "trace", help="protocol-event JSONL file written by `trace --events` "
        "or REPRO_TRACE",
    )
    report_parser.add_argument("--json", help="also save the summary as JSON")
    report_parser.add_argument("--csv", help="also save the summary as CSV")
    report_parser.set_defaults(handler=_cmd_report)

    svg_parser = subparsers.add_parser(
        "svg", help="render a run's final state to SVG"
    )
    _add_run_arguments(svg_parser)
    svg_parser.add_argument("--out", default="state.svg", help="output file")
    svg_parser.set_defaults(handler=_cmd_svg)

    fuzz_parser = subparsers.add_parser(
        "fuzz", help="deterministic scenario fuzzing (run / shrink / replay)"
    )
    fuzz_subparsers = fuzz_parser.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_subparsers.add_parser(
        "run", help="check a seed range against the oracle registry"
    )
    fuzz_run.add_argument(
        "--seeds",
        default="0:50",
        help="seed range START:COUNT, or one seed (default 0:50)",
    )
    fuzz_run.add_argument(
        "--oracles",
        default=None,
        help="comma-separated oracle names (default: the full registry)",
    )
    fuzz_run.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )
    fuzz_run.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        help="wall-clock seconds per seed attempt",
    )
    fuzz_run.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="re-runs per crashed/timed-out seed (default 1)",
    )
    fuzz_run.add_argument("--out", help="also write the summary JSON here")
    fuzz_run.add_argument(
        "--shrink",
        action="store_true",
        help="shrink every violating seed and write repro artifacts",
    )
    fuzz_run.add_argument(
        "--repro-dir",
        default="fuzz-repros",
        help="directory for shrunk repro artifacts (default fuzz-repros/)",
    )
    fuzz_run.add_argument(
        "--verbose", action="store_true", help="per-seed progress on stderr"
    )
    fuzz_run.add_argument(
        "--adversary",
        default=None,
        choices=_adversary_names(),
        help="force every seed through one adversary class",
    )
    fuzz_run.set_defaults(handler=_cmd_fuzz_run)

    fuzz_shrink = fuzz_subparsers.add_parser(
        "shrink", help="delta-debug one violating scenario to a minimal repro"
    )
    shrink_input = fuzz_shrink.add_mutually_exclusive_group(required=True)
    shrink_input.add_argument("--seed", type=int, help="shrink generate_scenario(SEED)")
    shrink_input.add_argument("--repro", help="re-shrink an existing repro artifact")
    fuzz_shrink.add_argument(
        "--oracles", default=None, help="comma-separated oracle names"
    )
    fuzz_shrink.add_argument(
        "--out", default="fuzz-repros", help="artifact directory (default fuzz-repros/)"
    )
    fuzz_shrink.add_argument(
        "--adversary",
        default=None,
        choices=_adversary_names(),
        help="generate --seed through one adversary class (ignored with --repro)",
    )
    fuzz_shrink.set_defaults(handler=_cmd_fuzz_shrink)

    fuzz_replay = fuzz_subparsers.add_parser(
        "replay", help="re-run the oracles on a repro artifact"
    )
    fuzz_replay.add_argument("repro", help="repro JSON written by `fuzz shrink`")
    fuzz_replay.add_argument(
        "--oracles", default=None, help="comma-separated oracle names"
    )
    fuzz_replay.set_defaults(handler=_cmd_fuzz_replay)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the simulation as a long-lived event-streaming service",
    )
    _add_run_arguments(serve_parser)
    serve_parser.add_argument(
        "--sink",
        choices=["stdout", "jsonl", "sqlite"],
        default="stdout",
        help="where the event stream goes (see docs/serving.md; "
        "default stdout)",
    )
    serve_parser.add_argument(
        "--sink-path",
        default=None,
        help="sink destination: a directory of rotated segments for "
        "--sink jsonl, a database file for --sink sqlite",
    )
    serve_parser.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        help="stop after N rounds (default: serve until a shutdown "
        "command arrives)",
    )
    serve_parser.add_argument(
        "--command-file",
        default=None,
        help="JSONL command file to tail (one {\"v\":1,\"cmd\":...} object "
        "per line; appended lines are picked up between rounds)",
    )
    serve_parser.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="events per sink commit (default 64)",
    )
    serve_parser.add_argument(
        "--buffer-capacity",
        type=int,
        default=4096,
        help="pending-event bound before backpressure engages (default 4096)",
    )
    serve_parser.add_argument(
        "--backpressure",
        choices=["block", "drop-oldest"],
        default="block",
        help="full-buffer policy: block the producer on the sink, or "
        "drop the oldest pending event and count sink.dropped "
        "(default block)",
    )
    serve_parser.add_argument(
        "--snapshot-every",
        type=int,
        default=50,
        help="rounds between service.snapshot events (default 50)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    list_parser = subparsers.add_parser("list", help="list experiments")
    list_parser.set_defaults(handler=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
