"""The signal-free (greedy) baseline.

Identical to the paper's protocol except that Move ignores the Signal
permission entirely: every cell with a route moves its entities toward
``next`` each round. Transfers still snap entities onto the entry edge.

This is *deliberately unsafe*: an entity can be snapped onto an edge
whose entry strip is occupied, violating the separation requirement. The
ablation benchmark runs it with a non-strict monitor suite and counts the
violations — quantifying exactly what the Signal mechanism buys.
"""

from __future__ import annotations

from typing import Dict

from repro.core.cell import CellState
from repro.core.move import MovePhaseReport, apply_moves
from repro.core.params import Parameters
from repro.core.route import route_phase
from repro.core.system import RoundReport, System, run_round
from repro.core.signal import SignalPhaseReport
from repro.grid.topology import CellId, Grid


def greedy_move_phase(
    grid: Grid,
    cells: Dict[CellId, CellState],
    params: Parameters,
    tid: CellId,
) -> MovePhaseReport:
    """Move every routed, non-faulty cell's entities — no permission check.

    Entities never enter failed cells (the routing already steers away,
    and a greedy mover with ``next`` pointing at a failed cell is skipped),
    but nothing prevents separation violations at the entry edge.
    """
    movers = [
        (cid, state.next_id)
        for cid, state in cells.items()
        if not state.failed
        and state.next_id is not None
        and state.members
        and not cells[state.next_id].failed
    ]
    return apply_moves(grid, cells, params, lambda entity, dst: dst == tid, movers)


class UnsafeSystem(System):
    """A ``System`` whose update skips Signal and moves greedily."""

    #: Only the reference engine calls ``update``; the others drive the
    #: one-phase methods, which run the paper's protocol.
    engines = ("reference",)
    kind = "the greedy baseline"

    def update(self) -> RoundReport:
        return run_round(
            self,
            lambda: route_phase(self.grid, self.cells, self.tid),
            self._signal_phase,
            lambda signal: greedy_move_phase(
                self.grid, self.cells, self.params, self.tid
            ),
        )

    def _signal_phase(self, route_report) -> SignalPhaseReport:
        """No Signal phase: clear any stale grants so monitors don't read them."""
        for state in self.cells.values():
            state.signal = None
        return SignalPhaseReport()
