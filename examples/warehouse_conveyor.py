#!/usr/bin/env python3
"""Warehouse conveyor routing — the paper's package-routing motivation.

The introduction cites "packages being routed on a grid of
multi-directional conveyors" as a setting where entities are passive and
cells are active. This example builds a 10x10 conveyor floor with:

* three intake stations (sources) on the west wall,
* one shipping dock (target) on the east wall,
* fixed obstacles (support pillars, dead conveyors) as pre-failed cells,

and routes packages with the distributed protocol. No conveyor ever
holds two packages closer than the safety gap (checked every round), and
the self-stabilizing routing finds ways around the obstacles on its own —
nothing is precomputed.

Run:  python examples/warehouse_conveyor.py
"""

import random

from repro import EagerSource, MonitorSuite, Parameters, Simulator, System
from repro.grid import Grid
from repro.metrics import latency_stats
from repro.viz import render_grid, render_routes

ROUNDS = 3000
FLOOR = Grid(10)
DOCK = (9, 4)
INTAKES = [(0, 1), (0, 4), (0, 8)]
PILLARS = [
    (3, 3), (3, 4), (3, 5),          # a wall of pillars with gaps
    (6, 0), (6, 1), (6, 2),          # dead conveyors near the south edge
    (6, 7), (6, 8), (6, 9),          # and near the north edge
    (5, 5),
]


def main() -> None:
    params = Parameters(l=0.2, rs=0.1, v=0.1)
    system = System(
        grid=FLOOR,
        params=params,
        tid=DOCK,
        sources={intake: EagerSource() for intake in INTAKES},
        rng=random.Random(7),
    )
    for pillar in PILLARS:
        system.fail(pillar)

    simulator = Simulator(system=system, rounds=ROUNDS, monitors=MonitorSuite())
    result = simulator.run()

    print("conveyor floor after", ROUNDS, "rounds:")
    print(render_grid(system))
    print()
    print("routing field (arrows = next conveyor toward the dock):")
    print(render_routes(system))
    print()
    print(f"packages shipped:    {result.consumed}")
    print(f"floor throughput:    {result.throughput:.4f} packages/round")
    print(f"packages in transit: {result.in_flight}")
    print(f"safety violations:   {result.monitor_violations} (Theorem 5 held)")

    latencies = simulator.tracker.latencies()
    if latencies:
        stats = latency_stats(latencies)
        print(
            f"transit latency:     mean {stats.mean:.0f}, median {stats.median:.0f}, "
            f"p95 {stats.p95:.0f}, max {stats.maximum:.0f} rounds"
        )

    per_intake = simulator.tracker.consumed_by_source
    print("shipped per intake: ", {str(k): v for k, v in sorted(per_intake.items())})


if __name__ == "__main__":
    main()
