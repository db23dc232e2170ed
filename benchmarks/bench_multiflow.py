"""Multi-commodity throughput and fairness under contention.

Measures the promoted multiflow subsystem (``docs/multiflow.md``) on
the crossing layout the fairness experiments use: ``count``
perpendicular commodities contending for shared crossing cells on an
8x8 grid, under the steady and flash-crowd workload profiles.

Three questions, three recorded numbers per scenario:

* **engine cost** — reference vs incremental rounds per CPU second on
  the same config (identical outcomes, proven by the lockstep harness;
  the delta is engine bookkeeping alone);
* **fairness** — the min/max consumed ratio across commodities
  (1.0 = perfectly fair; 0 = a commodity starved). Round-robin token
  rotation must keep every steady commodity above the floor gate;
* **contention price** — aggregate throughput, for the trajectory
  record (the crossing serializes perpendicular lanes, so per-commodity
  throughput sits below a solo lane while the sum exceeds one).

Methodology, engine cost: twin simulators of one config, one per
engine, step through the horizon in alternating blocks of ``BLOCK``
rounds (reference first in even blocks, incremental first in odd
ones), each block timed in CPU seconds (``time.process_time``). Each
engine's figure is the median of its per-block rates, and the speedup
is the ratio of the two medians, so one slow moment of the host moves
one block, not the record. The fairness and throughput figures come
from the same twin runs, summarized after the last block.

Results land in ``benchmarks/results/BENCH_multiflow.json`` with the
tracked trajectory copy at the repo root.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from conftest import horizon, run_once

from repro.core.params import Parameters
from repro.multiflow.commodities import default_commodities
from repro.sim.config import SimulationConfig
from repro.sim.simulator import build_simulation

DEFAULT_ROUNDS = 400
PAPER_ROUNDS = 2500  # match the corridor evaluation horizon

REPO_ROOT = Path(__file__).resolve().parent.parent

ENGINES = ("reference", "incremental")
#: Rounds per timed block; the engines alternate block by block.
BLOCK = 25


def crossing_config(rounds: int, count: int, workload: str) -> SimulationConfig:
    """``count`` crossing commodities on an 8x8 grid."""
    return SimulationConfig(
        grid_width=8,
        params=Parameters(l=0.25, rs=0.05, v=0.25),
        rounds=rounds,
        commodities=default_commodities(8, count),
        workload=workload,
        monitors=False,
        seed=7,
    )


def _entry(engine: str, simulator, rates) -> dict:
    """One engine's record: its block rates and the run's outcome."""
    result = simulator.summarize()
    consumed = dict(simulator.system.consumed_by_commodity)
    floor = min(consumed.values())
    peak = max(consumed.values())
    return {
        "engine": engine,
        "blocks": len(rates),
        "rounds_per_cpu_sec": statistics.median(rates),
        "throughput": result.throughput,
        "consumed_by_commodity": consumed,
        "fairness_ratio": (floor / peak) if peak else 0.0,
    }


def _compare(config: SimulationConfig) -> dict:
    simulators = {engine: build_simulation(config, engine=engine) for engine in ENGINES}
    rates = {engine: [] for engine in ENGINES}
    for block, first in enumerate(range(0, config.rounds, BLOCK)):
        size = min(BLOCK, config.rounds - first)
        for engine in ENGINES if block % 2 == 0 else ENGINES[::-1]:
            step = simulators[engine].step
            start = time.process_time()
            for _ in range(size):
                step()
            rates[engine].append(size / (time.process_time() - start))
    reference, incremental = (
        _entry(engine, simulators[engine], rates[engine]) for engine in ENGINES
    )
    # Identical protocol outcomes — the lockstep harness's guarantee.
    assert (
        incremental["consumed_by_commodity"]
        == reference["consumed_by_commodity"]
    )
    return {
        "rounds": config.rounds,
        "block_rounds": BLOCK,
        "commodities": len(config.commodities),
        "workload": config.workload,
        "reference": reference,
        "incremental": incremental,
        "speedup": (
            incremental["rounds_per_cpu_sec"] / reference["rounds_per_cpu_sec"]
        ),
    }


def test_multiflow_throughput(benchmark, results_dir):
    rounds = horizon(DEFAULT_ROUNDS, PAPER_ROUNDS) or PAPER_ROUNDS

    def experiment():
        return {
            "steady_2_crossing": _compare(crossing_config(rounds, 2, "steady")),
            "steady_4_crossing": _compare(crossing_config(rounds, 4, "steady")),
            "flash_crowd_4_crossing": _compare(
                crossing_config(rounds, 4, "flash-crowd")
            ),
        }

    record = run_once(benchmark, experiment)

    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (results_dir / "BENCH_multiflow.json").write_text(payload)
    (REPO_ROOT / "BENCH_multiflow.json").write_text(payload)
    for name, comparison in record.items():
        reference = comparison["reference"]
        print(
            f"\n{name}: {reference['rounds_per_cpu_sec']:.0f} r/cpu-s reference, "
            f"speedup {comparison['speedup']:.2f}x, throughput "
            f"{reference['throughput']:.4f}, fairness "
            f"{reference['fairness_ratio']:.2f}"
        )

    # Fairness gates. No starvation: every steady commodity delivers.
    # The symmetric 2-commodity crossing must also be near-equal; with 4
    # commodities the inner lanes cross twice as many perpendicular
    # lanes and legitimately deliver less, so only the floor is gated
    # there (the ratio stays in the record as the trajectory metric).
    for name in ("steady_2_crossing", "steady_4_crossing"):
        ledger = record[name]["reference"]["consumed_by_commodity"]
        assert min(ledger.values()) > 0, (
            f"{name}: a commodity starved at the crossing: {ledger}"
        )
    assert record["steady_2_crossing"]["reference"]["fairness_ratio"] >= 0.5, (
        "symmetric 2-commodity crossing should deliver near-equally"
    )
    # Contention price: adding perpendicular commodities must not
    # collapse aggregate delivery.
    assert (
        record["steady_4_crossing"]["reference"]["throughput"]
        > record["steady_2_crossing"]["reference"]["throughput"] * 0.5
    )
