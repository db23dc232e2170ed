"""Tests for graceful degradation under advert loss."""

import random

import pytest

from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.grid.paths import straight_path
from repro.grid.topology import Direction, Grid
from repro.monitors.invariants import check_containment, check_disjoint_membership
from repro.monitors.safety import check_safe
from repro.netsim.delay import LossyDelay
from repro.netsim.engine import TimedEngine
from repro.netsim.message import EntityTransferMessage, RouteAdvert

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
PATH = straight_path((1, 0), Direction.NORTH, 8)
ADVERT = RouteAdvert(src=(0, 0), dst=(0, 1), dist=1.0)


def lossy_engine(drop_probability: float, seed: int = 0) -> TimedEngine:
    system = System(
        grid=Grid(8),
        params=PARAMS,
        tid=PATH.target,
        sources={PATH.source: EagerSource()},
        rng=random.Random(seed),
    )
    for cid in Grid(8).cells():
        if cid not in PATH:
            system.fail(cid)
    return TimedEngine(
        system,
        delay_model=LossyDelay(drop_probability),
        delay_rng=random.Random(seed + 1),
    )


def run(engine: TimedEngine, rounds: int) -> list:
    return [engine.step() for _ in range(rounds)]


class TestLossyNetwork:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            LossyDelay(drop=1.5)

    def test_zero_loss_drops_nothing(self):
        model = LossyDelay(drop=0.0)
        rng = random.Random(0)
        assert all(model.sample(ADVERT, rng) == 0.0 for _ in range(100))
        engine = lossy_engine(0.0)
        run(engine, 50)
        assert engine.late_adverts == 0

    def test_total_loss_drops_all_adverts(self):
        model = LossyDelay(drop=1.0)
        rng = random.Random(0)
        assert all(model.sample(ADVERT, rng) == float("inf") for _ in range(100))
        engine = lossy_engine(1.0)
        engine.step()
        sent = engine.sent_by_type
        assert engine.late_adverts == sum(sent.values()) > 0

    def test_transfers_are_never_lost(self):
        """A transfer is a physical hand-off: no coin, no loss."""
        model = LossyDelay(drop=1.0)
        rng = random.Random(0)
        state = rng.getstate()
        transfer = EntityTransferMessage(
            src=(0, 0), dst=(0, 1), uid=1, position=(0.5, 0.9), birth_round=0
        )
        assert model.sample(transfer, rng) == 0.0
        assert rng.getstate() == state


class TestGracefulDegradation:
    @pytest.mark.parametrize("drop", [0.1, 0.3, 0.6, 0.9])
    def test_safety_and_conservation_survive_any_loss_rate(self, drop):
        """Advert loss can never break Safe, Invariants 1-2, or entity
        conservation — every missing advert is read conservatively."""
        engine = lossy_engine(drop)
        system = engine.system
        for _ in range(300):
            engine.step()
            assert check_safe(system) == []
            assert check_containment(system) == []
            assert check_disjoint_membership(system) == []
            assert (
                system.total_produced
                == system.total_consumed + system.entity_count()
            )

    def test_moderate_loss_still_delivers(self):
        consumed = sum(r.consumed_count for r in run(lossy_engine(0.2), 800))
        assert consumed > 0

    def test_throughput_decreases_with_loss(self):
        throughputs = []
        for drop in (0.0, 0.3, 0.6):
            consumed = sum(r.consumed_count for r in run(lossy_engine(drop), 600))
            throughputs.append(consumed / 600)
        assert throughputs[0] > throughputs[1] > throughputs[2]

    def test_full_advert_loss_freezes_traffic_safely(self):
        """With every advert dropped nothing ever gets permission to
        move; the system parks instead of crashing or colliding."""
        engine = lossy_engine(1.0)
        reports = run(engine, 200)
        assert sum(r.consumed_count for r in reports) == 0
        assert all(not r.move.moved_cells for r in reports)
        assert check_safe(engine.system) == []
