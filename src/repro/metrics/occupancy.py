"""Occupancy and blocking diagnostics.

The paper explains its throughput curves through *blocking*: a low
velocity "causes the predecessor cell to be blocked more frequently", and
saturation happens "when there is roughly only one entity in each cell".
These probes expose exactly those quantities, as running means (no
per-round series, so memory stays flat over any horizon).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.system import RoundReport, System
from repro.grid.topology import CellId


def blocked_cell_count(report: RoundReport) -> int:
    """Cells that held a token this round but could not grant (no gap)."""
    return len(report.signal.blocked)


@dataclass
class OccupancyProbe:
    """Running occupancy/blocking sums over a run.

    The probe does not count the grid each round. The in-flight
    population is ``total_produced - total_consumed``, and the occupied
    cell count is carried from round to round through the cells the
    round report names: the ends of each transfer and the cells of the
    produced entities. The grid is counted again only when the report
    cannot account for the change: on the first observed round, after a
    round the probe did not see, and when entities were seeded between
    rounds (``total_produced`` moved by more than ``report.produced``).
    Like the engines, it relies on entities entering only through
    production and ``seed_entity``; the monitors, not the probe, are
    what catches an entity placed any other way.
    """

    rounds: int = field(default=0, init=False)
    _entities_sum: int = field(default=0, init=False)
    _blocked_sum: int = field(default=0, init=False)
    _ratio_sum: float = field(default=0.0, init=False)
    _ratio_rounds: int = field(default=0, init=False)
    #: In-flight entities and occupied cells after the last observed round.
    entities: int = field(default=0, init=False)
    occupied: int = field(default=0, init=False)
    #: ``total_produced`` and the round index of the last observed round
    #: (``-1`` before the first): they tell whether this round's report
    #: accounts for every change since.
    _produced: int = field(default=-1, init=False)
    _round: int = field(default=-1, init=False)

    def observe(self, system: System, report: RoundReport) -> None:
        """Record one round's occupancy/blocking sample."""
        produced = system.total_produced
        entities = produced - system.total_consumed
        if (
            report.round_index != self._round + 1
            or produced - self._produced != len(report.produced)
        ):
            occupied = occupied_cell_count(system)
        else:
            occupied = self.occupied + _occupied_change(system, report)
        self.entities, self.occupied = entities, occupied
        self._produced, self._round = produced, report.round_index
        self.rounds += 1
        self._entities_sum += entities
        self._blocked_sum += blocked_cell_count(report)
        if occupied > 0:
            self._ratio_sum += entities / occupied
            self._ratio_rounds += 1

    def mean_entities(self) -> float:
        """Mean in-flight population over the observed rounds."""
        if self.rounds == 0:
            return 0.0
        return self._entities_sum / self.rounds

    def mean_blocked(self) -> float:
        """Mean number of blocked (token-held, no-gap) cells per round."""
        if self.rounds == 0:
            return 0.0
        return self._blocked_sum / self.rounds

    def mean_entities_per_occupied_cell(self) -> float:
        """The paper's saturation indicator (~1 at the saturation plateau)."""
        if self._ratio_rounds == 0:
            return 0.0
        return self._ratio_sum / self._ratio_rounds


def occupied_cell_count(system: System) -> int:
    """Cells holding at least one entity, counted over the whole grid."""
    return sum(1 for state in system.cells.values() if state.members)


def _occupied_change(system: System, report: RoundReport) -> int:
    """How many cells the round filled minus how many it emptied.

    Only cells whose population the round changed can change occupancy.
    Each one's count before the round is its count now less the round's
    net arrivals there.
    """
    net: Dict[CellId, int] = {}
    for transfer in report.move.transfers:
        net[transfer.src] = net.get(transfer.src, 0) - 1
        if not transfer.consumed:
            net[transfer.dst] = net.get(transfer.dst, 0) + 1
    for entity in report.produced:
        cid = entity.cell
        net[cid] = net.get(cid, 0) + 1
    cells = system.cells
    change = 0
    for cid, arrivals in net.items():
        if arrivals:
            now = len(cells[cid].members)
            change += (now > 0) - (now - arrivals > 0)
    return change


def occupancy_histogram(system: System) -> Dict[CellId, int]:
    """Entities per cell in the current state (render/diagnostic helper)."""
    return {cid: len(state.members) for cid, state in system.cells.items()}
