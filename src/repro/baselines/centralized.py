"""The centralized-coordinator baseline.

The paper's introduction contrasts distributed traffic control with the
classical centralized shape: "a coordinator periodically collects
information from the vehicles, decides, and disseminates the waypoints".
This baseline realizes that shape over the same cell substrate:

* Every ``period`` rounds, a central coordinator with global knowledge
  writes each cell's ``dist``/``next`` directly from a BFS — routing is
  *instantly* correct (better than the distributed protocol can do) but
  *stale in between*: crashes occurring mid-period are not routed around
  until the next coordination pulse.
* Movement permissions still use the Signal mechanism (this baseline is
  safe; the comparison isolates the coordination topology, not safety).
* The coordinator itself is a single point of failure: while it is down,
  no waypoints are valid and nothing moves. Cell-level churn plus
  coordinator churn is the regime where the distributed protocol's
  advantage shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.cell import INFINITY
from repro.core.move import MovePhaseReport, move_phase
from repro.core.route import RoutePhaseReport, write_route
from repro.core.signal import SignalPhaseReport, signal_phase
from repro.core.system import RoundReport, System, run_round


@dataclass
class CoordinatorSpec:
    """Coordinator behavior: pulse period and its own crash/recovery coins."""

    period: int = 10
    pf: float = 0.0
    pr: float = 0.2

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be at least 1, got {self.period}")
        if not 0.0 <= self.pf <= 1.0 or not 0.0 <= self.pr <= 1.0:
            raise ValueError("coordinator pf/pr must be probabilities")


class CentralizedSystem(System):
    """A ``System`` routed by a periodic central coordinator."""

    #: Only the reference engine calls ``update``; the others drive the
    #: one-phase methods, which run the paper's protocol.
    engines = ("reference",)
    kind = "the centralized baseline"

    def __init__(self, *args, coordinator: Optional[CoordinatorSpec] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.coordinator = coordinator or CoordinatorSpec()
        self.coordinator_up = True
        self._coord_rng = random.Random(self.rng.random())
        self.coordinator_outage_rounds = 0

    def clone(self) -> "CentralizedSystem":
        other = super().clone()
        other.coordinator = self.coordinator
        other.coordinator_up = self.coordinator_up
        other._coord_rng.setstate(self._coord_rng.getstate())
        other.coordinator_outage_rounds = self.coordinator_outage_rounds
        return other

    def _coordinator_churn(self) -> None:
        if self.coordinator_up:
            if self._coord_rng.random() < self.coordinator.pf:
                self.coordinator_up = False
        else:
            if self._coord_rng.random() < self.coordinator.pr:
                self.coordinator_up = True

    def _central_route(self) -> RoutePhaseReport:
        """The coordination pulse: write global-BFS routes into every cell."""
        report = RoutePhaseReport()
        rho = self.path_distance()
        for cid, state in self.cells.items():
            if state.failed:
                continue
            new_dist = rho[cid]
            if cid == self.tid:
                new_next = None
            elif new_dist == INFINITY:
                new_next = None
            else:
                new_next = min(
                    (
                        nbr
                        for nbr in self.grid.neighbors(cid)
                        if rho[nbr] == new_dist - 1
                    ),
                    default=None,
                )
            write_route(state, new_dist, new_next, report)
        return report

    def update(self) -> RoundReport:
        self._coordinator_churn()
        return run_round(self, self._route_phase, self._signal_phase, self._move_phase)

    def _route_phase(self) -> RoutePhaseReport:
        if self.coordinator_up and self.round_index % self.coordinator.period == 0:
            return self._central_route()
        return RoutePhaseReport()  # stale waypoints between pulses

    def _signal_phase(self, route_report) -> SignalPhaseReport:
        if self.coordinator_up:
            return signal_phase(self.grid, self.cells, self.params, self.token_policy)
        # Coordinator down: no valid waypoints, nothing moves.
        self.coordinator_outage_rounds += 1
        for state in self.cells.values():
            state.signal = None
        return SignalPhaseReport()

    def _move_phase(self, signal_report) -> MovePhaseReport:
        if self.coordinator_up:
            return move_phase(self.grid, self.cells, self.params, self.tid)
        return MovePhaseReport()
