#!/usr/bin/env python3
"""The protocol over real messages — and its wire cost.

The paper specifies ``System`` with shared variables but describes the
intended implementation: each round, every cell broadcasts its state to
its neighbors. This example runs that implementation
(:mod:`repro.netsim`): one paper round becomes four timed turns (dist ->
Route, next/occupancy -> Signal, grant -> Move, then entity hand-off
messages), each message delayed by up to one round period.

It then runs the shared-variable model side by side under the same
scripted failures and checks, round by round, that both are in exactly
the same state — the bisimulation that justifies analyzing the simple
model while deploying the message-passing one.

Run:  python examples/message_passing.py
"""

import random

from repro import EagerSource, Parameters, System
from repro.grid import Direction, Grid, straight_path
from repro.netsim import TimedEngine, UniformDelay

ROUNDS = 1000
FAULT_PLAN = {100: ("fail", (1, 4)), 400: ("recover", (1, 4))}


def build(path):
    system = System(
        grid=Grid(8),
        params=Parameters(l=0.25, rs=0.05, v=0.2),
        tid=path.target,
        sources={path.source: EagerSource()},
        rng=random.Random(0),
    )
    for cid in Grid(8).cells():
        if cid not in path:
            system.fail(cid)
    return system


def fingerprint(cells):
    return {
        cid: (
            state.failed,
            state.dist,
            state.next_id,
            state.signal,
            tuple(
                (uid, round(e.x, 9), round(e.y, 9))
                for uid, e in sorted(state.members.items())
            ),
        )
        for cid, state in cells.items()
    }


def main() -> None:
    path = straight_path((1, 0), Direction.NORTH, 8)
    shared = build(path)
    engine = TimedEngine(
        build(path),
        delay_model=UniformDelay(0.0, 1.0),
        delay_rng=random.Random(1),
    )
    passing = engine.system

    divergence = None
    for round_index in range(ROUNDS):
        if round_index in FAULT_PLAN:
            kind, cell = FAULT_PLAN[round_index]
            for system in (shared, passing):
                getattr(system, kind)(cell)
        shared.update()
        engine.step()
        if fingerprint(shared.cells) != fingerprint(passing.cells):
            divergence = round_index
            break

    print(f"rounds executed:        {ROUNDS}")
    print(f"fault plan:             {FAULT_PLAN}")
    print(
        "bisimulation:           "
        + ("IDENTICAL every round" if divergence is None else f"DIVERGED at {divergence}")
    )
    print(f"entities delivered:     {passing.total_consumed} "
          f"(shared model: {shared.total_consumed})")
    messages = sum(engine.sent_by_type.values())
    print(f"total messages:         {messages}")
    print(f"messages per round:     {messages / ROUNDS:.1f}")
    print("by type:")
    for name, count in sorted(engine.sent_by_type.items()):
        print(f"  {name:<24} {count:>8}  ({count / ROUNDS:.2f}/round)")
    print(f"late adverts:           {engine.late_adverts}")


if __name__ == "__main__":
    main()
