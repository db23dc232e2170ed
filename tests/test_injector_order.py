"""The fault injector against its old per-round loop.

``FaultInjector.apply`` walks a cell-id order it sorts once per grid.
The loop it replaced (kept below as the reference) built sets of live
and failed cells and sorted them every round. Both must hand the model
the same ascending lists, so every decision and every rng draw match.
"""

import random

from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.faults.injector import FaultInjector
from repro.faults.model import BernoulliFaultModel, ComposedFaultModel
from repro.faults.schedule import ScriptedFaultModel
from repro.grid.topology import Grid

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)


def reference_apply(model, system, rng, relocations=()):
    """The injector's per-round loop before the presorted order."""
    for round_index, new_tid in relocations:
        if round_index == system.round_index:
            system.relocate_target(new_tid)
    decision = model.decide(
        system.round_index,
        sorted(system.non_faulty_cells()),
        sorted(system.failed_cells()),
        rng,
    )
    for cid in sorted(decision.fail):
        system.fail(cid)
    for cid in sorted(decision.recover):
        system.recover(cid)
    return decision


def cloned(rng: random.Random) -> random.Random:
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


TID = (12, 12)
NEW_TID = (20, 3)
RELOCATIONS = ((25, NEW_TID),)


def churn_system(grid=None, tid=TID, source_rows=(4, 12, 20)) -> System:
    grid = grid or Grid(24)
    sources = {(0, j): EagerSource() for j in source_rows}
    return System(
        grid=grid, params=PARAMS, tid=tid, sources=sources, rng=random.Random(5)
    )


def test_decisions_and_rng_match_the_old_loop():
    wall = [(8, j) for j in range(24)]
    model = ComposedFaultModel(
        (
            ScriptedFaultModel.partition(wall, down_round=10, heal_round=40),
            BernoulliFaultModel(pf=0.08, pr=0.25, immune=frozenset({TID, NEW_TID})),
        )
    )
    injector = FaultInjector(model, rng=random.Random(11), relocations=RELOCATIONS)
    reference_rng = cloned(injector.rng)
    system, twin = churn_system(), churn_system()
    failures = 0
    for _ in range(80):
        decision = injector.apply(system)
        assert decision == reference_apply(model, twin, reference_rng, RELOCATIONS)
        failures += len(decision.fail)
        system.update()
        twin.update()
    assert injector.rng.getstate() == reference_rng.getstate()
    assert system.tid == twin.tid == NEW_TID
    assert system.failed_cells() == twin.failed_cells()
    assert failures > 1_000  # heavy churn: dozens of crashes a round
    assert set(wall) <= injector.history[10].fail  # the campaign played
    assert all(TID not in d.fail and NEW_TID not in d.fail for d in injector.history)


def test_one_injector_follows_the_grid_it_is_applied_to():
    model = BernoulliFaultModel(pf=0.2, pr=0.3)
    injector = FaultInjector(model, rng=random.Random(2))
    reference_rng = cloned(injector.rng)
    grids = [Grid(6), Grid(5, 9), Grid(4)]
    systems = [churn_system(grid, (3, 3), (1,)) for grid in grids]
    twins = [churn_system(grid, (3, 3), (1,)) for grid in grids]
    for index in [0, 0, 1, 1, 0, 2, 1, 2, 2, 0]:
        decision = injector.apply(systems[index])
        expected = reference_apply(model, twins[index], reference_rng)
        assert decision == expected
        systems[index].update()
        twins[index].update()
    assert injector.rng.getstate() == reference_rng.getstate()
