"""Vectorized-engine scaling: array-native sweeps vs the full-sweep
reference at N in {16, 64, 256, 1024}, and the whole round loop against
the engine at 256.

The workload is the paper's straight corridor at ``x = 1`` stretched to
an ``N x N`` grid with the complement alive but idle — the shape whose
Route/Signal sweeps are pure per-cell overhead for the object engines,
and exactly what the structure-of-arrays core turns into whole-grid
numpy operations.

Methodology, scaling: each measurement times ``engine.step()`` directly
(system construction excluded), so the entries compare engines and
nothing else. The reference engine is measured up to 256 (a 1024x1024
full Python sweep takes minutes per round); at 1024 the vectorized
engine runs alone and its entry records ``speedup: null``.

Methodology, loop: ``Simulator.step()`` with monitors off runs the fault
injector, the engine and the meters. None of them walks the grid each
round: the injector keeps its live and failed lists from fault events,
and the occupancy probe carries its counts from the round reports. So
the loop should cost little more than the engine. Two twin simulators of
the 256 corridor warm up for ``LOOP_WARMUP`` rounds, then step in
alternating blocks of ``LOOP_BLOCK`` rounds, one through
``Simulator.step()`` and the other through ``engine.step()`` alone;
each block is timed in CPU seconds and both see the same states.

The acceptance gates: >= 10x over the reference on the 64x64 grid, and
the loop at most 1.25x the engine at 256. Results land in repo-root
``BENCH_vectorized.json`` (the tracked trajectory file; schema: engine,
grid N, rounds/sec, speedup, and the loop/engine ratio) with a working
copy in ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import time

from conftest import run_once

from repro.core.params import Parameters
from repro.grid.paths import straight_path
from repro.grid.topology import Direction
from repro.sim.config import SimulationConfig
from repro.sim.simulator import build_simulation

from bench_engine import REPO_ROOT

GRID_SIZES = (16, 64, 256, 1024)

#: Per-grid round budgets: enough rounds for a stable per-round figure,
#: small enough that the whole scan stays in benchmark-smoke territory.
VECTORIZED_ROUNDS = {16: 400, 64: 200, 256: 40, 1024: 8}
REFERENCE_ROUNDS = {16: 400, 64: 40, 256: 8}

SPEEDUP_GATE_GRID = 64
SPEEDUP_GATE = 10.0

LOOP_GRID = 256
LOOP_WARMUP = 300
LOOP_BLOCK = 20
LOOP_BLOCKS = 10
#: ``Simulator.step()`` may take at most this many times ``engine.step()``.
LOOP_GATE = 1.25


def scaling_config(n: int, rounds: int) -> SimulationConfig:
    """N x N grid, straight length-N corridor at x=1, complement idle."""
    return SimulationConfig(
        grid_width=n,
        params=Parameters(l=0.25, rs=0.05, v=0.2),
        rounds=rounds,
        path=straight_path((1, 0), Direction.NORTH, n).cells,
        fail_complement=False,
        monitors=False,
        seed=7,
    )


def _timed_steps(n: int, engine: str, rounds: int) -> dict:
    simulator = build_simulation(scaling_config(n, rounds), engine=engine)
    stepper = simulator.engine
    start = time.perf_counter()
    for _ in range(rounds):
        stepper.step()
    elapsed = time.perf_counter() - start
    return {
        "engine": engine,
        "rounds": rounds,
        "seconds": elapsed,
        "rounds_per_sec": rounds / elapsed,
        "consumed": simulator.system.total_consumed,
    }


def _scaling_entry(n: int) -> dict:
    vectorized = _timed_steps(n, "vectorized", VECTORIZED_ROUNDS[n])
    entry = {"grid": n, "vectorized": vectorized, "speedup": None}
    if n in REFERENCE_ROUNDS:
        reference = _timed_steps(n, "reference", REFERENCE_ROUNDS[n])
        entry["reference"] = reference
        entry["speedup"] = (
            vectorized["rounds_per_sec"] / reference["rounds_per_sec"]
        )
        # Both engines consumed identically over the shared horizon —
        # the differential harness's promise, spot-checked here.
        shared = min(VECTORIZED_ROUNDS[n], REFERENCE_ROUNDS[n])
        if shared == VECTORIZED_ROUNDS[n] == REFERENCE_ROUNDS[n]:
            assert vectorized["consumed"] == reference["consumed"]
    return entry


def _loop_entry() -> dict:
    """``Simulator.step()`` against ``engine.step()`` on twin 256 corridors."""
    config = scaling_config(LOOP_GRID, LOOP_WARMUP + LOOP_BLOCK * LOOP_BLOCKS)
    loop = build_simulation(config, engine="vectorized")
    alone = build_simulation(config, engine="vectorized")
    for _ in range(LOOP_WARMUP):
        loop.step()
        alone.engine.step()
    sides = {"loop": loop.step, "engine": alone.engine.step}
    seconds = dict.fromkeys(sides, 0.0)
    for block in range(LOOP_BLOCKS):
        order = ("loop", "engine") if block % 2 == 0 else ("engine", "loop")
        for name in order:
            step = sides[name]
            start = time.process_time()
            for _ in range(LOOP_BLOCK):
                step()
            seconds[name] += time.process_time() - start
    assert loop.system.total_consumed == alone.system.total_consumed
    rounds = LOOP_BLOCK * LOOP_BLOCKS
    return {
        "grid": LOOP_GRID,
        "warmup": LOOP_WARMUP,
        "rounds": rounds,
        "engine_rounds_per_cpu_sec": rounds / seconds["engine"],
        "loop_rounds_per_cpu_sec": rounds / seconds["loop"],
        "loop_over_engine": seconds["loop"] / seconds["engine"],
    }


def test_vectorized_scaling(benchmark, results_dir):
    def experiment():
        return {
            "schema": 1,
            "workload": "straight corridor at x=1, complement alive, "
            "monitors off, engine.step() timed directly; loop: "
            "Simulator.step() against engine.step() at 256",
            "entries": [_scaling_entry(n) for n in GRID_SIZES],
            "loop": _loop_entry(),
        }

    record = run_once(benchmark, experiment)

    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (results_dir / "BENCH_vectorized.json").write_text(payload)
    (REPO_ROOT / "BENCH_vectorized.json").write_text(payload)

    speedups = {}
    for entry in record["entries"]:
        vec = entry["vectorized"]["rounds_per_sec"]
        speedups[entry["grid"]] = entry["speedup"]
        label = (
            f"{entry['speedup']:.1f}x" if entry["speedup"] else "(vec only)"
        )
        print(f"\nN={entry['grid']}: vectorized {vec:.0f} r/s {label}")

    ratio = record["loop"]["loop_over_engine"]
    print(f"\nN={LOOP_GRID}: Simulator.step() takes {ratio:.2f}x engine.step()")

    # The acceptance bars: >= 10x on the 64x64 grid, and the loop within
    # 1.25x of the engine at 256.
    assert speedups[SPEEDUP_GATE_GRID] >= SPEEDUP_GATE, (
        f"vectorized engine should be >= {SPEEDUP_GATE}x the reference on "
        f"the {SPEEDUP_GATE_GRID}x{SPEEDUP_GATE_GRID} grid, got "
        f"{speedups[SPEEDUP_GATE_GRID]:.1f}x"
    )
    assert ratio <= LOOP_GATE, (
        f"Simulator.step() should take at most {LOOP_GATE}x engine.step() on "
        f"the {LOOP_GRID}x{LOOP_GRID} corridor, took {ratio:.2f}x"
    )
