"""Round stamps of the multi-commodity monitor violations.

``MultiCommoditySystem.update`` advances ``system.round_index`` before
the monitors run, so a violation must carry the report's round, as the
core checks' violations do, not the already-advanced system counter.
"""

import random

from repro.core.entity import Entity
from repro.core.params import Parameters
from repro.grid.topology import Grid
from repro.multiflow.commodities import Commodity
from repro.multiflow.monitors import MultiflowMonitorSuite
from repro.multiflow.system import MultiCommoditySystem

PARAMS = Parameters(l=0.2, rs=0.05, v=0.2)
DEFECT_ROUND = 40


def plus_crossing() -> MultiCommoditySystem:
    """Eastbound along row 2 and northbound along column 2 of a 5-grid."""
    return MultiCommoditySystem(
        Grid(5),
        PARAMS,
        (
            Commodity(name="eastbound", target=(4, 2), sources=((0, 2),)),
            Commodity(name="northbound", target=(2, 4), sources=((2, 0),)),
        ),
        rng=random.Random(0),
    )


def tagged(uid: int, x: float, y: float, commodity: str) -> Entity:
    entity = Entity(uid=uid, x=x, y=y, side=PARAMS.l)
    entity.commodity_name = commodity
    return entity


def test_planted_defects_carry_the_report_round():
    system = plus_crossing()
    suite = MultiflowMonitorSuite(strict=False).attach(system)
    for _ in range(DEFECT_ROUND + 5):
        report = system.update()
        if report.round_index == DEFECT_ROUND:
            # Mixed commodities in an off-lane cell, booked in both
            # ledgers, so this cell alone breaks only type exclusivity...
            corner = system.cells[(0, 0)].members
            corner[10_000] = tagged(10_000, 0.3, 0.3, "eastbound")
            corner[10_001] = tagged(10_001, 0.7, 0.7, "northbound")
            system.produced_by_commodity["eastbound"] += 1
            system.produced_by_commodity["northbound"] += 1
            # ...and a ledger defect: one northbound entity never made.
            system.produced_by_commodity["northbound"] += 1
        suite.after_round(system, report)
        if report.round_index == DEFECT_ROUND:
            del corner[10_000], corner[10_001]
            system.produced_by_commodity["eastbound"] -= 1
            system.produced_by_commodity["northbound"] -= 2
    assert system.round_index == DEFECT_ROUND + 5
    found = {(v.property_name, v.round_index) for v in suite.violations}
    assert found == {
        ("TypeExclusive", DEFECT_ROUND),
        ("CommodityConservation", DEFECT_ROUND),
    }
    assert len(suite.violations) == 2
    exclusive, ledger = suite.violations
    assert exclusive.detail == "cell (0, 0) holds entities of multiple commodities"
    assert ledger.detail.startswith("commodity 'northbound'")
