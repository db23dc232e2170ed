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
    """Running occupancy/blocking sums over a run."""

    rounds: int = field(default=0, init=False)
    _entities_sum: int = field(default=0, init=False)
    _blocked_sum: int = field(default=0, init=False)
    _ratio_sum: float = field(default=0.0, init=False)
    _ratio_rounds: int = field(default=0, init=False)

    def observe(self, system: System, report: RoundReport) -> None:
        """Record one round's occupancy/blocking sample."""
        sizes = [len(state.members) for state in system.cells.values()]
        entities = sum(sizes)
        occupied = len(sizes) - sizes.count(0)
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


def occupancy_histogram(system: System) -> Dict[CellId, int]:
    """Entities per cell in the current state (render/diagnostic helper)."""
    return {cid: len(state.members) for cid, state in system.cells.items()}
