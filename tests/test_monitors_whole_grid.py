"""The monitors read every cell, every round.

A running 96x96 system on the vectorized engine has entities in flight
around its sources, while a far corner stays empty. The tests write
defects straight into that corner's ``members`` dicts, as code that
assigns ``CellState.members`` directly would, so no engine or observer
hears about them. The next check must still find each defect: no
occupancy index, dirty set or engine report may decide which cells a
monitor reads. They also pin the order violations are recorded in and
that each ``MonitorSuite`` flag turns off exactly its own check.
"""

from dataclasses import replace

import pytest

from repro.core.entity import Entity
from repro.core.move import Transfer
from repro.core.params import Parameters
from repro.monitors.recorder import MonitorSuite, MonitorViolation
from repro.obs import ObservabilityConfig
from repro.sim.config import SimulationConfig
from repro.sim.simulator import build_simulation

pytest.importorskip("numpy")  # the vectorized engine

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)  # d = 0.3, l/2 = 0.125
CORNER = [(i, j) for i in range(88, 96) for j in range(88, 96)]
PLANTED_UID = 10**9

SAFE = "Safe (Theorem 5)"
INV1 = "Invariant 1"
INV2 = "Invariant 2"
H = "predicate-H"
LEMMA4 = "Lemma 4"


def running_city():
    """A strict-monitored 96x96 run after 70 rounds, with entities in
    flight near its two edge sources and the far corner still empty."""
    config = SimulationConfig(
        grid_width=96,
        params=PARAMS,
        rounds=1_000,
        tid=(48, 48),
        sources=((48, 0), (0, 48)),
        source_policy="eager",
        seed=7,
        monitors=True,
        engine="vectorized",
    )
    sim = build_simulation(config, observability=ObservabilityConfig())
    for _ in range(70):  # routes reach the sources after 48 rounds
        report = sim.step()
    system = sim.system
    assert system.entity_count() > 0
    assert all(not system.cells[cid].members for cid in CORNER)
    return sim, report


def plant(system, cid, x, y, uid):
    """Write an entity into ``members`` without telling anyone."""
    system.cells[cid].members[uid] = Entity(uid=uid, x=x, y=y, side=PARAMS.l)


def plant_too_close(system, cid=(94, 94)):
    i, j = cid
    plant(system, cid, i + 0.4, j + 0.5, PLANTED_UID)
    plant(system, cid, i + 0.5, j + 0.55, PLANTED_UID + 1)


def plant_outside(system, cid=(93, 95)):
    i, j = cid
    plant(system, cid, i + 0.05, j + 0.5, PLANTED_UID + 2)


def plant_duplicate(system, cid=(95, 95)):
    held = system.all_entities()[0].uid
    i, j = cid
    plant(system, cid, i + 0.5, j + 0.5, held)
    return held


class TestStrictStepRaises:
    def test_too_close_pair_raises_safe(self):
        sim, _ = running_city()
        plant_too_close(sim.system)
        with pytest.raises(MonitorViolation) as raised:
            sim.step()
        violation = raised.value.violation
        assert violation.property_name == SAFE
        assert "cell (94, 94)" in violation.detail

    def test_entity_outside_its_cell_raises_invariant_1(self):
        sim, _ = running_city()
        plant_outside(sim.system)
        with pytest.raises(MonitorViolation) as raised:
            sim.step()
        violation = raised.value.violation
        assert violation.property_name == INV1
        assert f"entity {PLANTED_UID + 2}" in violation.detail

    def test_uid_held_twice_raises_invariant_2(self):
        sim, _ = running_city()
        held = plant_duplicate(sim.system)
        with pytest.raises(MonitorViolation) as raised:
            sim.step()
        violation = raised.value.violation
        assert violation.property_name == INV2
        assert violation.detail == f"entity {held} present in multiple cells"


def plant_all(system):
    """One defect per property, all in the empty corner."""
    plant_too_close(system)
    plant_outside(system)
    plant_duplicate(system)
    # Predicate H: a grant west while an entity sits in the west strip.
    system.cells[(92, 92)].signal = (91, 92)
    plant(system, (92, 92), 92.2, 92.5, PLANTED_UID + 3)
    # Lemma 4: two empty cells signaling each other.
    system.cells[(90, 94)].signal = (91, 94)
    system.cells[(91, 94)].signal = (90, 94)


def lenient_round(suite, system, report):
    """Run ``suite``'s Signal hook and post-round checks on ``system``,
    with a transfer across the planted Lemma 4 pair in the report."""
    suite.attach(system)
    system.phase_observer("signal", system)
    crossing = Transfer(
        uid=PLANTED_UID + 4, src=(90, 94), dst=(91, 94), consumed=False
    )
    move = replace(report.move, transfers=report.move.transfers + [crossing])
    suite.after_round(system, replace(report, move=move))
    # The hook runs on a post-Move state here, where H need not hold for
    # the live grants near the sources; only the planted grant counts.
    return [
        v.property_name
        for v in suite.violations
        if v.property_name != H or v.detail.startswith("cell (92, 92)")
    ]


class TestLenientRecording:
    def test_safe_recorded_before_invariant_1_in_a_lower_cell(self):
        sim, report = running_city()
        plant_outside(sim.system, (88, 88))
        plant_too_close(sim.system, (95, 95))
        suite = MonitorSuite(strict=False)
        suite.after_round(sim.system, report)
        assert [v.property_name for v in suite.violations] == [SAFE, INV1]
        assert "cell (95, 95)" in suite.violations[0].detail
        assert "cell (88, 88)" in suite.violations[1].detail
        assert all(v.round_index == report.round_index for v in suite.violations)

    def test_every_property_in_order(self):
        sim, report = running_city()
        plant_all(sim.system)
        names = lenient_round(MonitorSuite(strict=False), sim.system, report)
        assert names == [H, SAFE, INV1, INV2, LEMMA4]

    @pytest.mark.parametrize(
        "flag, name",
        [
            ("check_safety", SAFE),
            ("check_invariant_1", INV1),
            ("check_invariant_2", INV2),
            ("check_h_predicate", H),
            ("check_lemma_4", LEMMA4),
        ],
    )
    def test_each_flag_disables_only_its_check(self, flag, name):
        sim, report = running_city()
        plant_all(sim.system)
        suite = MonitorSuite(strict=False, **{flag: False})
        names = lenient_round(suite, sim.system, report)
        assert names == [n for n in [H, SAFE, INV1, INV2, LEMMA4] if n != name]
