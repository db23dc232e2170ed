"""Benchmarks of the message-passing implementation.

Two questions: what does the protocol *cost* on the wire (messages per
round per cell, by type), and what does realizing shared variables as
timed broadcast turns cost in wall-clock versus the shared-variable
model?
"""

import random

from conftest import run_once

from repro.analysis.tables import format_table
from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.grid.paths import straight_path
from repro.grid.topology import Direction, Grid
from repro.netsim.engine import TimedEngine

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)


def build_passing(n: int) -> TimedEngine:
    path = straight_path((1, 0), Direction.NORTH, n)
    system = System(
        grid=Grid(n),
        params=PARAMS,
        tid=path.target,
        sources={path.source: EagerSource()},
        rng=random.Random(0),
    )
    for cid in Grid(n).cells():
        if cid not in path:
            system.fail(cid)
    return TimedEngine(system)


def warmed_up(n: int) -> TimedEngine:
    engine = build_passing(n)
    for _ in range(100):
        engine.step()
    return engine


def test_update_round_message_passing_8x8(benchmark):
    benchmark(warmed_up(8).step)


def test_update_round_message_passing_16x16(benchmark):
    benchmark(warmed_up(16).step)


def test_message_cost_accounting(benchmark):
    """Wire cost of 500 corridor rounds, reported by message type.

    The steady-state advert cost is exactly
    ``3 x sum(live cell degree)`` per round; transfers add the traffic
    itself. The assertion pins the advert count so protocol changes that
    alter communication cost are caught.
    """

    def run():
        engine = build_passing(8)
        for _ in range(500):
            engine.step()
        return engine

    engine = run_once(benchmark, run)
    system = engine.system
    sent = engine.sent_by_type
    print()
    print(
        format_table(
            ["message type", "total", "per round"],
            [
                (name, count, count / 500)
                for name, count in sorted(sent.items())
            ],
        )
    )
    degree_sum = sum(
        len(system.grid.neighbors(cid)) for cid in system.non_faulty_cells()
    )
    for advert in ("RouteAdvert", "OccupancyAdvert", "GrantAdvert"):
        assert sent[advert] == degree_sum * 500
    assert sent["EntityTransferMessage"] >= system.total_consumed
