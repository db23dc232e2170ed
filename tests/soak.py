"""The serve soak harness: ``python -m tests.soak [--rounds N]``.

Drives a sharded ``repro serve`` service through a scripted operational
campaign — periodic entity arrivals, a ``regional_failure`` fault storm,
one mid-run target relocation — for N rounds (default 10000), sampling
the soak probes as it goes, then judges the run with the oracle trio of
:mod:`repro.serve.oracles`:

1. bounded memory (allocated-block plateau),
2. monotone consumed counter,
3. zero live-monitor violations.

The probed (primary) campaign streams to a disk-backed sqlite sink so
the memory oracle measures the *service*, not an in-process record
accumulator. On top of the trio, the harness checks
**byte-determinism**: the same campaign is replayed twice more into
memory sinks, and all three canonical event streams must be
byte-identical — replica-vs-replica gives two-run identity, and
primary-vs-replica gives cross-sink (sqlite vs memory) identity.

Exit code 0 when every oracle and determinism check passes, 1 otherwise.
CI runs the time-boxed smoke (``--rounds 2000``); the nightly workflow
runs the full default.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.params import Parameters
from repro.serve import (
    MemoryProbe,
    MemorySink,
    SqliteSink,
    build_service,
    canonical_line,
    soak_verdicts,
)
from repro.sim.config import SimulationConfig

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)


def soak_config(rounds: int, seed: int, shards: int) -> SimulationConfig:
    return SimulationConfig(
        grid_width=8,
        grid_height=8,
        rounds=max(rounds, 2),
        seed=seed,
        params=PARAMS,
        tid=(7, 7),
        sources=((0, 0),),
        monitors=True,
        engine="sharded",
        shards=shards,
    )


def soak_schedule(rounds: int):
    """Arrival drip + one fault storm + one relocation + shutdown."""
    schedule = []
    # Commanded arrivals on a second corridor cell, every ~2% of the run.
    for rnd in range(20, rounds, max(rounds // 50, 10)):
        schedule.append((rnd, {"v": 1, "cmd": "arrive", "cell": [0, 3]}))
    # The regional_failure storm starts an eighth of the way in.
    schedule.append(
        (max(rounds // 8, 10), {"v": 1, "cmd": "adversary", "spec": "regional_failure"})
    )
    # One target relocation at the midpoint (sent to the running shard fleet).
    schedule.append((rounds // 2, {"v": 1, "cmd": "relocate", "target": [7, 0]}))
    schedule.append((rounds, {"v": 1, "cmd": "shutdown"}))
    return schedule


def run_campaign(rounds: int, seed: int, shards: int, sink, probe=None):
    """One full campaign into ``sink``; returns the finished service.

    With a ``probe``, memory and consumed-counter samples are collected
    every ~2.5% of the run (the soak trend series).
    """
    service = build_service(
        soak_config(rounds, seed, shards),
        sink,
        schedule=soak_schedule(rounds),
        snapshot_every=max(rounds // 20, 5),
        batch_size=128,
        buffer_capacity=8192,
    )
    sample_every = max(rounds // 40, 5)
    consumed_samples = []
    while service.tick():
        if probe is not None and service.rounds_served % sample_every == 0:
            probe.sample()
            consumed_samples.append(service.stepper.simulator.meter.total_consumed)
    service.finish()
    return service, consumed_samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tests.soak", description="serve soak harness (oracle trio)"
    )
    parser.add_argument(
        "--rounds", type=int, default=10_000, help="soak horizon (default 10000)"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--growth-tolerance",
        type=float,
        default=0.05,
        help="relative steady-state memory growth allowed (default 5%%)",
    )
    parser.add_argument(
        "--sqlite-out",
        default=None,
        help="keep the primary run's sqlite event log here (default: temp file)",
    )
    parser.add_argument(
        "--skip-determinism",
        action="store_true",
        help="run only the probed soak, not the two determinism replicas",
    )
    args = parser.parse_args(argv)

    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failures += 1

    print(
        f"# soak: {args.rounds} rounds, sharded@{args.shards}, "
        f"seed {args.seed}"
    )
    import tempfile
    from pathlib import Path

    if args.sqlite_out:
        db_path = Path(args.sqlite_out)
        db_path.parent.mkdir(parents=True, exist_ok=True)
    else:
        db_path = Path(tempfile.mkdtemp(prefix="soak-")) / "events.db"

    probe = MemoryProbe()
    started = time.monotonic()
    # The probed run streams to disk: an in-process record sink would
    # grow linearly by design and mask (or fake) a service leak.
    service, consumed_samples = run_campaign(
        args.rounds, args.seed, args.shards, SqliteSink(db_path), probe=probe
    )
    elapsed = time.monotonic() - started
    stats = service.stats()
    buffer = stats["buffer"]
    print(
        f"# {stats['rounds_served']} rounds in {elapsed:.1f}s "
        f"({stats['rounds_served'] / max(elapsed, 1e-9):.0f} rounds/s), "
        f"{stats['commands_applied']} commands, "
        f"{buffer['delivered']} events in {buffer['batches']} batches, "
        f"{stats['heals_forwarded']} heal events"
    )
    for verdict in soak_verdicts(
        probe.samples,
        consumed_samples,
        stats["violations"],
        growth_tolerance=args.growth_tolerance,
    ):
        report(verdict.name, verdict.ok, verdict.detail)
    report(
        "command-errors",
        stats["command_errors"] == 0,
        f"{stats['command_errors']} rejected command(s)",
    )
    report(
        "buffer-conservation",
        buffer["produced"] == buffer["delivered"] + buffer["dropped"]
        and buffer["pending"] == 0,
        f"produced {buffer['produced']} = delivered {buffer['delivered']} "
        f"+ dropped {buffer['dropped']} (pending {buffer['pending']})",
    )

    if not args.skip_determinism:
        replica_a = MemorySink()
        run_campaign(args.rounds, args.seed, args.shards, replica_a)
        replica_b = MemorySink()
        run_campaign(args.rounds, args.seed, args.shards, replica_b)
        report(
            "two-run-byte-identity",
            replica_a.to_jsonl() == replica_b.to_jsonl(),
            f"{len(replica_a.records)} vs {len(replica_b.records)} events",
        )
        sqlite_text = SqliteSink(db_path).to_jsonl()
        report(
            "cross-sink-byte-identity",
            sqlite_text == replica_a.to_jsonl(),
            f"sqlite ({db_path}) vs memory",
        )

    print(f"# soak {'PASSED' if failures == 0 else f'FAILED ({failures})'}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
