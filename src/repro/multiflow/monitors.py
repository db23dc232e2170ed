"""Runtime monitors for the multi-commodity system.

The paper's properties carry over unchanged — ``Safe``, containment,
disjoint membership, and predicate H are all stated over cell members
and scalar signals, which the multi-commodity automaton reuses — so
:class:`MultiflowMonitorSuite` simply extends the core
:class:`~repro.monitors.recorder.MonitorSuite` with the two properties
the generalization adds:

* **type-exclusivity** — no cell ever holds entities of two
  commodities (the residency conjunct of Signal plus the production
  gate must make this invariant);
* **per-commodity conservation** — for every commodity,
  ``produced == consumed + in-flight`` after every round; the scalar
  conservation audit cannot see one commodity's entities leaking into
  another's ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.monitors.recorder import MonitorSuite


@dataclass
class MultiflowMonitorSuite(MonitorSuite):
    """The core monitor suite plus the multi-commodity invariants."""

    check_type_exclusivity: bool = True
    check_commodity_conservation: bool = True

    def after_round(self, system, report) -> None:
        """Run all core checks, then the multi-commodity ones.

        Violations carry ``report.round_index``, like the core checks:
        ``system.round_index`` has already advanced past the round.
        """
        super().after_round(system, report)
        rnd = report.round_index
        if self.check_type_exclusivity:
            for cid in system.check_type_exclusive():
                self._record(
                    rnd,
                    "TypeExclusive",
                    f"cell {cid} holds entities of multiple commodities",
                )
        if self.check_commodity_conservation:
            in_flight = system.in_flight_by_commodity()
            for name in system.table.names():
                produced = system.produced_by_commodity[name]
                consumed = system.consumed_by_commodity[name]
                if produced != consumed + in_flight[name]:
                    self._record(
                        rnd,
                        "CommodityConservation",
                        f"commodity {name!r}: produced {produced} != "
                        f"consumed {consumed} + in-flight {in_flight[name]}",
                    )
