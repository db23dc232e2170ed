"""Unit tests for fault models, schedules, and the injector."""

import random

import pytest

from repro.core.params import Parameters
from repro.core.system import System
from repro.faults.injector import FaultInjector
from repro.faults.model import (
    BernoulliFaultModel,
    ComposedFaultModel,
    FaultDecision,
    NoFaults,
    WindowedFaultModel,
)
from repro.faults.schedule import FaultEvent, ScriptedFaultModel
from repro.grid.topology import Grid
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.stepper import ResumableStepper

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
CELLS = [(i, j) for i in range(3) for j in range(3)]


class TestNoFaults:
    def test_always_quiet(self):
        model = NoFaults()
        decision = model.decide(0, CELLS, [], random.Random(0))
        assert decision.is_quiet


class TestBernoulli:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            BernoulliFaultModel(pf=1.5, pr=0.1)
        with pytest.raises(ValueError):
            BernoulliFaultModel(pf=0.1, pr=-0.1)

    def test_zero_probabilities_quiet(self):
        model = BernoulliFaultModel(pf=0.0, pr=0.0)
        decision = model.decide(0, CELLS, CELLS, random.Random(0))
        assert decision.is_quiet

    def test_pf_one_fails_everything(self):
        model = BernoulliFaultModel(pf=1.0, pr=0.0)
        decision = model.decide(0, CELLS, [], random.Random(0))
        assert decision.fail == frozenset(CELLS)

    def test_immune_cells_never_fail(self):
        model = BernoulliFaultModel(pf=1.0, pr=0.0, immune=frozenset({(1, 1)}))
        decision = model.decide(0, CELLS, [], random.Random(0))
        assert (1, 1) not in decision.fail

    def test_recovery(self):
        model = BernoulliFaultModel(pf=0.0, pr=1.0)
        decision = model.decide(0, [], CELLS, random.Random(0))
        assert decision.recover == frozenset(CELLS)

    def test_reproducible_given_seed(self):
        model = BernoulliFaultModel(pf=0.3, pr=0.3)
        a = model.decide(0, CELLS, [], random.Random(5))
        b = model.decide(0, CELLS, [], random.Random(5))
        assert a == b

    def test_empirical_rate(self):
        model = BernoulliFaultModel(pf=0.2, pr=0.0)
        rng = random.Random(1)
        total = sum(
            len(model.decide(k, CELLS, [], rng).fail) for k in range(2000)
        )
        assert 0.15 * 9 * 2000 < total < 0.25 * 9 * 2000

    def test_stationary_fraction(self):
        assert BernoulliFaultModel(pf=0.0, pr=0.5).stationary_failed_fraction() == 0.0
        assert BernoulliFaultModel(
            pf=0.1, pr=0.3
        ).stationary_failed_fraction() == pytest.approx(0.25)


class TestWindowed:
    def test_active_only_in_window(self):
        inner = BernoulliFaultModel(pf=1.0, pr=0.0)
        model = WindowedFaultModel(inner=inner, start=5, stop=10)
        rng = random.Random(0)
        assert model.decide(4, CELLS, [], rng).is_quiet
        assert model.decide(5, CELLS, [], rng).fail
        assert model.decide(9, CELLS, [], rng).fail
        assert model.decide(10, CELLS, [], rng).is_quiet

    def test_recover_all_at_stop(self):
        inner = BernoulliFaultModel(pf=1.0, pr=0.0)
        model = WindowedFaultModel(
            inner=inner, start=0, stop=3, recover_all_at_stop=True
        )
        rng = random.Random(0)
        decision = model.decide(3, [], [(0, 0), (1, 1)], rng)
        assert decision.recover == frozenset({(0, 0), (1, 1)})


class TestScripted:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(round_index=0, cell=(0, 0), kind="explode")
        with pytest.raises(ValueError):
            FaultEvent(round_index=-1, cell=(0, 0), kind="fail")

    def test_replay(self):
        model = ScriptedFaultModel(
            [
                FaultEvent(2, (0, 0), "fail"),
                FaultEvent(2, (1, 1), "fail"),
                FaultEvent(5, (0, 0), "recover"),
            ]
        )
        rng = random.Random(0)
        assert model.decide(0, CELLS, [], rng).is_quiet
        decision = model.decide(2, CELLS, [], rng)
        assert decision.fail == frozenset({(0, 0), (1, 1)})
        assert model.decide(5, CELLS, [(0, 0)], rng).recover == frozenset({(0, 0)})
        assert model.last_round == 5

    def test_fail_at_shorthand(self):
        model = ScriptedFaultModel.fail_at([(1, (0, 0)), (3, (2, 2))])
        rng = random.Random(0)
        assert model.decide(1, CELLS, [], rng).fail == frozenset({(0, 0)})
        assert model.decide(3, CELLS, [], rng).fail == frozenset({(2, 2)})

    def test_conflicting_events_rejected(self):
        model = ScriptedFaultModel(
            [FaultEvent(1, (0, 0), "fail"), FaultEvent(1, (0, 0), "recover")]
        )
        with pytest.raises(ValueError):
            model.decide(1, CELLS, [], random.Random(0))

    def test_empty_script(self):
        model = ScriptedFaultModel([])
        assert model.last_round == -1
        assert model.decide(0, CELLS, [], random.Random(0)).is_quiet


class TestInjector:
    def make_system(self):
        return System(grid=Grid(3), params=PARAMS, tid=(2, 2))

    def test_applies_decisions(self):
        system = self.make_system()
        injector = FaultInjector(ScriptedFaultModel.fail_at([(0, (1, 1))]))
        injector.apply(system)
        assert system.cells[(1, 1)].failed
        assert injector.total_failures == 1

    def test_applies_recovery(self):
        system = self.make_system()
        system.fail((1, 1))
        injector = FaultInjector(
            ScriptedFaultModel([FaultEvent(0, (1, 1), "recover")])
        )
        injector.apply(system)
        assert not system.cells[(1, 1)].failed
        assert injector.total_recoveries == 1

    def test_history_and_last_disruption(self):
        system = self.make_system()
        injector = FaultInjector(ScriptedFaultModel.fail_at([(1, (0, 0))]))
        injector.apply(system)  # round 0: quiet
        system.update()
        injector.apply(system)  # round 1: fail
        system.update()
        injector.apply(system)  # round 2: quiet
        assert len(injector.history) == 3
        assert injector.last_disruption_round == 1

    def test_no_disruption(self):
        system = self.make_system()
        injector = FaultInjector(NoFaults())
        injector.apply(system)
        assert injector.last_disruption_round is None

    def test_history_bounded_by_limit(self):
        system = self.make_system()
        injector = FaultInjector(NoFaults(), history_limit=5)
        for _ in range(20):
            injector.apply(system)
            system.update()
        assert len(injector.history) == 5
        assert injector.rounds_applied == 20

    def test_history_limit_none_unbounded(self):
        system = self.make_system()
        injector = FaultInjector(NoFaults(), history_limit=None)
        for _ in range(20):
            injector.apply(system)
            system.update()
        assert len(injector.history) == 20

    def test_last_disruption_survives_eviction(self):
        # The disrupting decision is long gone from the bounded history,
        # but the tracked round index must still be exact.
        system = self.make_system()
        injector = FaultInjector(
            ScriptedFaultModel.fail_at([(2, (0, 0))]), history_limit=3
        )
        for _ in range(30):
            injector.apply(system)
            system.update()
        assert len(injector.history) == 3
        assert all(d.is_quiet for d in injector.history)
        assert injector.last_disruption_round == 2

    def test_history_limit_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(NoFaults(), history_limit=0)
        with pytest.raises(ValueError):
            FaultInjector(NoFaults(), history_limit=-4)


class TestSplice:
    """``FaultInjector.splice`` plays campaigns on one flat composition."""

    GRID = [(i, j) for i in range(8) for j in range(8)]
    #: Rounds from a campaign's failures to its recoveries.
    SPAN = 6

    def campaign(self, index):
        """Fail two cells now and recover them ``SPAN`` rounds later."""
        cells = random.Random(index).sample(self.GRID, 2)
        return [FaultEvent(0, cell, "fail") for cell in cells] + [
            FaultEvent(self.SPAN, cell, "recover") for cell in cells
        ]

    def test_flat_decisions_equal_the_nested_composition(self):
        """1,200 campaigns, one a round, against the nesting each one
        used to add (every campaign wrapping the running model), compared
        every few rounds for as long as the nesting still runs. The flat
        tuple never holds more than the live campaigns and the base
        model, so ``decide`` costs the same at the last campaign as at
        the first."""
        base = BernoulliFaultModel(pf=0.05, pr=0.2, immune=frozenset({(3, 3)}))
        injector = FaultInjector(base, rng=random.Random(4))
        nested, nested_rng = base, random.Random(4)
        alive, failed = self.GRID[::2], self.GRID[1::2]
        compared = 0
        for round_index in range(1_200):
            events = self.campaign(round_index)
            injector.splice(events, offset=round_index)
            assert len(injector.model.models) <= self.SPAN + 2
            shifted = [
                FaultEvent(e.round_index + round_index, e.cell, e.kind)
                for e in events
            ]
            nested = ComposedFaultModel((ScriptedFaultModel(shifted), nested))
            if round_index % 8:
                continue
            decision = injector.model.decide(round_index, alive, failed, injector.rng)
            if nested_rng is None:
                continue
            try:
                expected = nested.decide(round_index, alive, failed, nested_rng)
            except RecursionError:  # the nesting is too deep to run
                nested_rng = None
                continue
            assert decision == expected
            assert injector.rng.getstate() == nested_rng.getstate()
            compared += 1
        assert compared >= 60
        assert injector.model.models[-1] is base

    def test_finished_campaigns_leave_the_base_model(self):
        base = BernoulliFaultModel(pf=0.1, pr=0.1)
        injector = FaultInjector(base)
        injector.splice(self.campaign(0), offset=10)
        assert injector.model.models == (injector.model.models[0], base)
        injector.splice(offset=10 + self.SPAN)
        assert len(injector.model.models) == 2  # the last recoveries are due
        injector.splice(offset=11 + self.SPAN)
        assert injector.model is base

    def test_a_campaign_replaces_no_faults(self):
        injector = FaultInjector(NoFaults())
        injector.splice(self.campaign(0))
        assert isinstance(injector.model, ScriptedFaultModel)
        assert injector.model.last_round == self.SPAN

    def test_relocations_merge_with_the_pending_ones(self):
        system = System(grid=Grid(4), params=PARAMS, tid=(3, 3))
        injector = FaultInjector(relocations=[(1, (2, 2)), (9, (0, 3))])
        injector.apply(system)
        system.update()
        injector.apply(system)  # round 1: the first relocation
        system.update()
        assert system.tid == (2, 2)
        injector.splice(relocations=[(2, (1, 1))], offset=2)
        assert injector.relocations == ((4, (1, 1)), (9, (0, 3)))
        assert isinstance(injector.model, NoFaults)

    @pytest.mark.parametrize("start", [3, 6, 9])
    def test_overdue_relocations_apply_in_order(self, start):
        """An injector first applied after some of its relocations' rounds
        (once past several of them) applies each overdue one, in order, at
        that first apply, and the later ones at their rounds."""
        system = System(grid=Grid(4), params=PARAMS, tid=(3, 3))
        injector = FaultInjector(relocations=[(1, (2, 2)), (5, (0, 3)), (7, (1, 1))])
        moves = []
        system.cell_observer = lambda event, cid: moves.append(cid)
        system.run(start)
        targets = {}
        for _ in range(start, 10):
            injector.apply(system)
            targets[system.round_index] = system.tid
            system.update()
        assert moves[1::2] == [(2, 2), (0, 3), (1, 1)]
        assert targets == {
            r: (2, 2) if r < 5 else (0, 3) if r < 7 else (1, 1) for r in targets
        }


def test_a_protected_target_stays_protected_where_it_moves():
    """Bernoulli churn with ``protect_target`` on a 6x6 grid, the target
    relocated at round 5 between rounds (serve's ``relocate``): on 20
    seeds the live target never fails, and the old one churns again."""
    old_failures = 0
    for seed in range(20):
        config = SimulationConfig(
            grid_width=6,
            params=PARAMS,
            rounds=60,
            tid=(5, 5),
            sources=((0, 0),),
            fault=FaultSpec(pf=0.05, pr=0.2, protect_target=True),
            seed=seed,
        )
        stepper = ResumableStepper(config)
        for round_index in range(60):
            if round_index == 5:
                stepper.recover((4, 1))  # a no-op unless churn failed it
                stepper.relocate_target((4, 1))
            stepper.step()
            system = stepper.system
            assert not system.cells[system.tid].failed, (seed, round_index)
            old_failures += system.cells[(5, 5)].failed
    assert old_failures > 0
