"""The fault injector against its old per-round loop.

``FaultInjector.apply`` hands the model ascending lists of live and
failed cells that it keeps current from the system's fail/recover
events. The loop it replaced (kept below as the reference) built sets
of live and failed cells and sorted them every round. Both must hand
the model the same lists, so every decision and every rng draw match.
"""

import gc
import random
import weakref

import pytest

from repro.core.arrays import HAVE_NUMPY
from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.faults import injector as injector_module
from repro.faults.injector import FaultInjector
from repro.faults.model import BernoulliFaultModel, ComposedFaultModel
from repro.faults.schedule import ScriptedFaultModel
from repro.grid.topology import Grid
from repro.sim.engine import ENGINES
from repro.sim.stepper import ResumableStepper
from repro.testing.differential import random_config, random_multiflow_config

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


# ----------------------------------------------------------------------
# The tracked split: live and failed lists kept from fail/recover events
# ----------------------------------------------------------------------

#: Faulting seeds of the differential matrix's generator.
SPLIT_SEEDS = (3, 11, 26)


def commanded_rounds(config, engine):
    """Step ``config`` under ``engine`` and yield the stepper after each
    round. Between rounds, the command surface fails, recovers and seeds
    cells and, once, relocates the target (a multi-commodity system has
    only fail and recover)."""
    stepper = ResumableStepper(config, engine=engine)
    system = stepper.system
    rng = random.Random(config.seed)
    cells = sorted(system.cells)
    single_flow = not getattr(system, "is_multiflow", False)
    try:
        for round_index in range(config.rounds):
            if round_index % 4 == 1:
                stepper.fail(rng.choice(cells))
            if round_index % 4 == 3:
                failed = sorted(system.failed_cells())
                if failed:
                    stepper.recover(rng.choice(failed))
            if single_flow and round_index % 3 == 2:
                stepper.arrive(rng.choice(cells))
            if single_flow and round_index == 20:
                fit = [
                    cid
                    for cid in cells
                    if cid not in system.sources and not system.cells[cid].failed
                ]
                stepper.relocate_target(rng.choice(fit))
            stepper.step()
            yield stepper
    finally:
        stepper.simulator.engine.close()


def commanded_runs():
    """Faulting single-flow seeds under every engine, and one faulting
    multi-commodity config under the engines that run it."""
    runs = []
    for engine in ENGINES:
        marks = (
            pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
            if engine == "vectorized"
            else ()
        )
        runs += [
            pytest.param(random_config(seed), engine, id=f"{engine}-{seed}", marks=marks)
            for seed in SPLIT_SEEDS
        ]
    runs += [
        pytest.param(random_multiflow_config(5), engine, id=f"multiflow-{engine}")
        for engine in ("reference", "incremental")
    ]
    return runs


def first_split_mismatch(config, engine):
    """The first round after which the injector's lists differ from the
    system's own live and failed sets (``None`` when they never do)."""
    for stepper in commanded_rounds(config, engine):
        system = stepper.system
        split = stepper.simulator.injector.split(system)
        if split.alive != sorted(system.non_faulty_cells()):
            return system.round_index
        if split.failed != sorted(system.failed_cells()):
            return system.round_index
    return None


@pytest.mark.parametrize("config, engine", commanded_runs())
def test_tracked_split_matches_the_grid_every_round(config, engine):
    assert config.fault.enabled
    assert first_split_mismatch(config, engine) is None


def test_a_tracker_deaf_to_recover_is_caught(monkeypatch):
    def ignore_recover(self, event, cid):
        if event == "fail":
            injector_module._shift(self.alive, self.failed, cid)
        if self._chained is not None:
            self._chained(event, cid)

    monkeypatch.setattr(injector_module.LiveSplit, "_on_cell_event", ignore_recover)
    config = random_config(SPLIT_SEEDS[0])
    assert first_split_mismatch(config, "reference") is not None


def test_a_released_simulator_frees_its_system_without_the_collector():
    """The split holds no reference back to the system, so dropping a
    reference-engine simulator frees the system by reference counting
    alone (a cycle would keep it until the next collection)."""
    gc.collect()
    gc.disable()
    try:
        stepper = ResumableStepper(random_config(SPLIT_SEEDS[0]), engine="reference")
        stepper.run_for(5)
        system = weakref.ref(stepper.system)
        del stepper
        assert system() is None
    finally:
        gc.enable()
