"""The vectorized round engine: array-native sweeps, object-state truth.

:class:`VectorizedEngine` executes the paper's ``update`` transition with
whole-grid numpy operations (:mod:`repro.core.arrays`) instead of
per-cell Python sweeps:

* **Route** is one :func:`~repro.core.arrays.route_relax` call — the
  Jacobi simultaneous ``1 + min`` with the exact ``(dist, id)`` argmin —
  followed by a write-back of only the changed cells.
* **Signal** reads the per-direction ``NEPrev`` masks
  (:func:`~repro.core.arrays.ne_prev_masks`) and evaluates only *active*
  cells: those with an inbound pointer or a live token/signal. Skipping
  the rest is byte-exact by the same invariant the incremental engine
  proves — a skipped cell holds ``(NEPrev, token, signal) = (empty, bot,
  bot)`` and its fresh evaluation would be a no-op consuming no policy
  randomness. Each active cell runs the shared per-cell Signal step
  (:func:`~repro.core.signal._signal_step`) with the one gap rule,
  :func:`~repro.core.signal.gap_clear`.
* **Move** derives movers from the round's grant report, exactly like
  the incremental engine.

The :class:`~repro.core.cell.CellState` objects remain the source of
truth — every phase writes its changes back *before* the phase
notification fires, so monitors, metrics and traces observe identical
state at identical instants, and the lockstep harness
(:mod:`repro.testing.differential`) can compare canonical states
verbatim. The arrays are a mirror, resynchronized on ``fail`` /
``recover`` / seeding events through the chained cell observer.

Requires numpy (a soft dependency of the package): constructing the
engine raises a pointed ``RuntimeError`` when it is missing.
"""

from __future__ import annotations

from typing import List

from repro.core.arrays import (
    NO_CELL,
    GridArrays,
    ne_prev_masks,
    require_numpy,
    route_relax,
)
from repro.core.cell import dist_from_int
from repro.core.move import MovePhaseReport, movers_from_grants
from repro.core.route import RoutePhaseReport
from repro.core.signal import SignalPhaseReport, _signal_step
from repro.core.system import System
from repro.grid.topology import CellId
from repro.sim.engine import RoundEngine

try:  # soft dependency; construction is gated by require_numpy()
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None


class VectorizedEngine(RoundEngine):
    """Array-native execution: whole-grid numpy phases, byte-identical
    observable behavior.

    Equivalence to the reference engine is enforced by the 3-way
    differential matrix (``tests/test_engine_vectorized.py``) and the
    fuzz corpus, exactly as for the incremental engine.
    """

    name = "vectorized"

    def __init__(self, system: System, config=None):
        require_numpy()
        super().__init__(system, config)
        self.arrays = GridArrays.from_system(system)
        #: Flat-index-aligned views of the object state (the cells dict
        #: is insertion-ordered in ``Grid.cells()`` row-major order,
        #: which is ascending flat order).
        self._cell_ids: List[CellId] = list(system.cells)
        self._states = list(system.cells.values())
        self._chained_cell_observer = system.cell_observer
        system.cell_observer = self._on_cell_event

    # ------------------------------------------------------------------
    # Mirror maintenance
    # ------------------------------------------------------------------

    def _on_cell_event(self, event: str, cid: CellId) -> None:
        """Environment transition (fail/recover/seeding) touched ``cid``:
        resynchronize its array slot from the object state."""
        k = self.arrays.flat(cid)
        self.arrays.sync_cell(k, self._states[k])
        if self._chained_cell_observer is not None:
            self._chained_cell_observer(event, cid)

    def resync(self) -> None:
        """Re-pack every array slot from the object state.

        External code that mutates cell state directly (outside the
        ``fail``/``recover``/``seed_entity`` transitions, which notify
        automatically) must call this, or the mirror goes stale — the
        analogue of the incremental engine's ``invalidate_all``.
        """
        for k, state in enumerate(self._states):
            self.arrays.sync_cell(k, state)

    # ------------------------------------------------------------------
    # The phases (assembled by RoundEngine.step)
    # ------------------------------------------------------------------

    def _route_phase(self) -> RoutePhaseReport:
        """Whole-grid relaxation; write back only the changed cells."""
        arrays = self.arrays
        new_dist, new_next = route_relax(arrays)
        # Route never touches failed cells or the target (read each
        # round: ``System.relocate_target`` may have moved it).
        hold = arrays.failed.copy()
        hold[arrays.flat(self.system.tid)] = True
        new_dist = np.where(hold, arrays.dist, new_dist)
        new_next = np.where(hold, arrays.next, new_next)

        report = RoutePhaseReport()
        changed_dist = np.nonzero(new_dist != arrays.dist)[0]
        changed_next = np.nonzero(new_next != arrays.next)[0]
        cell_ids = self._cell_ids
        states = self._states
        for k in changed_dist:
            k = int(k)
            states[k].dist = dist_from_int(int(new_dist[k]))
            report.changed_dist.append(cell_ids[k])
        for k in changed_next:
            k = int(k)
            encoded = int(new_next[k])
            states[k].next_id = None if encoded == NO_CELL else cell_ids[encoded]
            report.changed_next.append(cell_ids[k])
        arrays.dist = new_dist
        arrays.next = new_next
        return report

    def _signal_phase(self, route_report: RoutePhaseReport) -> SignalPhaseReport:
        """Signal over active cells only (ascending flat = row-major).

        A cell is *active* when some neighbor routes through it while
        visibly nonempty (an ``NEPrev`` mask bit), or it still holds a
        token or signal from an earlier round. Every other non-failed
        cell provably satisfies ``(NEPrev, token, signal) = (empty, bot,
        bot)``, for which the Signal function is a no-op that consumes
        no policy randomness (the token-policy contract) — skipping it
        is byte-exact.
        """
        arrays = self.arrays
        system = self.system
        west, south, north, east = ne_prev_masks(arrays)
        active = (west | south | north | east) | (
            (arrays.token != NO_CELL) | (arrays.signal != NO_CELL)
        )
        active &= ~arrays.failed

        report = SignalPhaseReport()
        cell_ids = self._cell_ids
        states = self._states
        width = arrays.width
        params = system.params
        policy = system.token_policy
        for k in np.nonzero(active)[0]:
            k = int(k)
            ne_prev = set()
            if west[k]:
                ne_prev.add(cell_ids[k - 1])
            if south[k]:
                ne_prev.add(cell_ids[k - width])
            if north[k]:
                ne_prev.add(cell_ids[k + width])
            if east[k]:
                ne_prev.add(cell_ids[k + 1])
            state = states[k]
            _signal_step(state, ne_prev, params, policy, report)
            arrays.token[k] = arrays.ref(state.token)
            arrays.signal[k] = arrays.ref(state.signal)
        return report

    def _move_phase(self, signal_report: SignalPhaseReport) -> MovePhaseReport:
        """Move derived from this round's grants (``movers_from_grants``)."""
        report = self.system.move_cells(movers_from_grants(signal_report.granted))
        member_count = self.arrays.member_count
        flat = self.arrays.flat
        for transfer in report.transfers:
            member_count[flat(transfer.src)] -= 1
            if not transfer.consumed:
                member_count[flat(transfer.dst)] += 1
        return report

    def _on_produced(self, produced) -> None:
        """Count fresh entities at their source cells."""
        member_count = self.arrays.member_count
        flat = self.arrays.flat
        for entity in produced:
            member_count[flat(entity.cell)] += 1
