"""Graceful-degradation bench: throughput vs advert drop probability.

Not a paper figure — the paper assumes reliable delivery — but a
robustness result its protocol earns for free: every advert default is
conservative, so message loss costs throughput only, never safety (see
``LossyDelay`` in repro/netsim/delay.py). This bench sweeps the loss
rate and verifies monotone decay with zero violations.
"""

import random

from conftest import run_once

from repro.analysis.tables import format_table
from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.grid.paths import straight_path
from repro.grid.topology import Direction, Grid
from repro.monitors.safety import check_safe
from repro.netsim.delay import LossyDelay
from repro.netsim.engine import TimedEngine

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
PATH = straight_path((1, 0), Direction.NORTH, 8)
ROUNDS = 1200
DROP_RATES = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8)


def run_at(drop: float) -> tuple:
    system = System(
        grid=Grid(8),
        params=PARAMS,
        tid=PATH.target,
        sources={PATH.source: EagerSource()},
        rng=random.Random(0),
    )
    for cid in Grid(8).cells():
        if cid not in PATH:
            system.fail(cid)
    engine = TimedEngine(
        system, delay_model=LossyDelay(drop), delay_rng=random.Random(1)
    )
    violations = 0
    consumed = 0
    for _ in range(ROUNDS):
        consumed += engine.step().consumed_count
        violations += len(check_safe(system))
    return consumed / ROUNDS, engine.late_adverts, violations


def test_throughput_vs_advert_loss(benchmark):
    rows = run_once(
        benchmark, lambda: [(drop, *run_at(drop)) for drop in DROP_RATES]
    )
    print()
    print(
        format_table(
            ["drop prob", "throughput", "adverts dropped", "safety violations"],
            rows,
        )
    )
    throughputs = [row[1] for row in rows]
    assert all(row[3] == 0 for row in rows), "loss must never break safety"
    assert all(
        later <= earlier + 1e-9
        for earlier, later in zip(throughputs, throughputs[1:])
    ), "throughput should decay monotonically with loss"
    assert throughputs[0] > 0.1 and throughputs[-1] < throughputs[0] / 2
