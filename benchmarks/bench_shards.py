"""Sharded-engine throughput: rounds/s vs district count at 64x64 and
256x256, against the full-sweep reference and against the incremental
engine, which skips the same quiescent cells in one process.

Each district worker re-evaluates only its dirty cells (the rules of
``repro.core.dirty``) and replies with changes only, so on this
corridor a round's work follows the few cells that change, not the
grid's area. What remains is coordination: a pickled signal exchange
per shard per round, a route exchange only for a district whose Route
has work, full-rim ghosts, and the coordinator's global merge. Each
sharded leg records ``requests_per_shard_round``, the requests counted
at ``ShardChannel.post`` over its timed window per shard and round.
``vs_reference`` says what sharding buys over the full sweep;
``vs_incremental`` says what the coordination costs against the engine
that does the same per-cell work with none of it. The committed
``BENCH_shards.json`` records both. The gate is only against
pathology: 1-shard mode — the degenerate fleet, pure coordination
overhead — must reach ``ONE_SHARD_GATE`` of the reference's rounds/s
on the 64x64 grid. Shard-count *correctness* invariance is proven
elsewhere (``tests/test_shard_engine.py``); here every sharded leg just
spot-checks its consumed count against the incremental leg's, which
steps the same horizon.

Methodology matches ``bench_vectorized.py``: the straight-corridor
scaling workload, ``engine.step()`` timed directly (simulator probes
are O(N^2) Python per round and would drown the engine delta), and
fleet spawn/teardown and each engine's first full sweep excluded from
the timed window by stepping once before the clock starts. The
reference leg sweeps every cell, so a short horizon already gives it a
window of half a second or more; the incremental and sharded legs
share a longer one, so their windows are not a few milliseconds of
noise either (each at least about 0.5 s on a 2-vCPU Xeon VM). Over
that horizon the corridor fills with entities, so these legs also time
rounds with traffic, not only the first, nearly empty ones.
"""

from __future__ import annotations

import json
import time

from conftest import run_once

from bench_engine import REPO_ROOT
from bench_vectorized import scaling_config

from repro.shard.channel import ShardChannel
from repro.sim.simulator import build_simulation

GRID_SIZES = (64, 256)
SHARD_COUNTS = (1, 4)

#: Per-grid round budgets: a short one for the full-sweep reference,
#: and a longer one shared by the incremental and sharded legs (so the
#: consumed spot-check compares identical horizons).
REFERENCE_ROUNDS = {64: 24, 256: 6}
FAST_ROUNDS = {64: 1500, 256: 400}

ONE_SHARD_GATE_GRID = 64
ONE_SHARD_GATE = 0.10


def _timed_steps(n: int, engine: str, shards=None) -> dict:
    budget = (REFERENCE_ROUNDS if engine == "reference" else FAST_ROUNDS)[n]
    config = scaling_config(n, budget)
    if shards is not None:
        from dataclasses import replace

        config = replace(config, shards=shards)
    simulator = build_simulation(config, engine=engine)
    stepper = simulator.engine
    post = ShardChannel.post
    requests = 0

    def counting_post(channel, kind, payload):
        nonlocal requests
        requests += 1
        post(channel, kind, payload)

    try:
        stepper.step()  # spawn the fleet / warm the engine outside the clock
        rounds = budget - 1
        ShardChannel.post = counting_post
        start = time.perf_counter()
        for _ in range(rounds):
            stepper.step()
        elapsed = time.perf_counter() - start
    finally:
        ShardChannel.post = post
        stepper.close()
    leg = {
        "engine": engine if shards is None else f"{engine}@{shards}",
        "rounds": rounds,
        "seconds": elapsed,
        "rounds_per_sec": rounds / elapsed,
        "consumed": simulator.system.total_consumed,
    }
    if shards is not None:
        leg["requests_per_shard_round"] = requests / (rounds * shards)
    return leg


def _grid_entry(n: int) -> dict:
    reference = _timed_steps(n, "reference")
    incremental = _timed_steps(n, "incremental")
    entry = {
        "grid": n,
        "reference": reference,
        "incremental": incremental,
        "sharded": [],
    }
    for shards in SHARD_COUNTS:
        leg = _timed_steps(n, "sharded", shards=shards)
        leg["shards"] = shards
        for name, baseline in (("reference", reference), ("incremental", incremental)):
            leg[f"vs_{name}"] = leg["rounds_per_sec"] / baseline["rounds_per_sec"]
        # Identical consumed over the identical horizon — the invariance
        # the lockstep matrix proves, spot-checked per leg.
        assert leg["consumed"] == incremental["consumed"]
        entry["sharded"].append(leg)
    return entry


def test_shard_scaling(benchmark, results_dir):
    def experiment():
        return {
            "schema": 1,
            "workload": "straight corridor at x=1, complement alive, "
            "monitors off, engine.step() timed directly, fleet spawn "
            "excluded; reference over its own short horizon, incremental "
            "and sharded over a shared longer one",
            "entries": [_grid_entry(n) for n in GRID_SIZES],
        }

    record = run_once(benchmark, experiment)

    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (results_dir / "BENCH_shards.json").write_text(payload)
    (REPO_ROOT / "BENCH_shards.json").write_text(payload)

    ratios = {}
    for entry in record["entries"]:
        ref = entry["reference"]["rounds_per_sec"]
        inc = entry["incremental"]["rounds_per_sec"]
        print(
            f"\nN={entry['grid']}: reference {ref:.1f} r/s, "
            f"incremental {inc:.1f} r/s"
        )
        for leg in entry["sharded"]:
            ratios[(entry["grid"], leg["shards"])] = leg["vs_reference"]
            print(
                f"  sharded@{leg['shards']}: {leg['rounds_per_sec']:.1f} r/s "
                f"({leg['vs_reference']:.2f}x reference, "
                f"{leg['vs_incremental']:.2f}x incremental, "
                f"{leg['requests_per_shard_round']:.2f} requests/shard/round)"
            )

    one_shard = ratios[(ONE_SHARD_GATE_GRID, 1)]
    assert one_shard >= ONE_SHARD_GATE, (
        f"1-shard mode regressed past the coordination-overhead budget on "
        f"the {ONE_SHARD_GATE_GRID}x{ONE_SHARD_GATE_GRID} grid: "
        f"{one_shard:.2f}x reference < {ONE_SHARD_GATE}x"
    )
