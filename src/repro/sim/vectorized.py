"""The vectorized round engine: array-native sweeps, object-state truth.

:class:`VectorizedEngine` executes the paper's ``update`` transition with
whole-grid numpy operations (:mod:`repro.core.arrays`) instead of
per-cell Python sweeps:

* **Route** is one :func:`~repro.core.arrays.route_relax` call — the
  Jacobi simultaneous ``1 + min`` with the exact ``(dist, id)`` argmin,
  over one sentinel-padded dist buffer — followed by a write-back of
  only the changed cells.
* **Signal** reads the per-direction ``NEPrev`` masks
  (:func:`~repro.core.arrays.ne_prev_masks`) and evaluates only *active*
  cells: those with an inbound pointer or a live token/signal. Skipping
  the rest is byte-exact by the same invariant the incremental engine
  proves — a skipped cell holds ``(NEPrev, token, signal) = (empty, bot,
  bot)`` and its fresh evaluation would be a no-op consuming no policy
  randomness. Each active cell runs the shared per-cell Signal step
  (:func:`~repro.core.signal._signal_step`) with the one gap rule,
  :func:`~repro.core.signal.gap_clear`; the active cells' mask bits are
  read as one list, and their ``token``/``signal`` mirrors written back
  once a round.
* **Move** derives movers from the round's grant report, exactly like
  the incremental engine; ``member_count`` follows the transfers in one
  subtraction and one addition, and the produced entities in one more
  addition.

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
        np.copyto(new_dist, arrays.dist, where=arrays.failed)
        np.copyto(new_next, arrays.next, where=arrays.failed)
        target = arrays.flat(self.system.tid)
        new_dist[target] = arrays.dist[target]
        new_next[target] = arrays.next[target]

        report = RoutePhaseReport()
        changed_dist = np.flatnonzero(new_dist != arrays.dist)
        changed_next = np.flatnonzero(new_next != arrays.next)
        cell_ids = self._cell_ids
        states = self._states
        for k, value in zip(changed_dist.tolist(), new_dist[changed_dist].tolist()):
            states[k].dist = dist_from_int(value)
            report.changed_dist.append(cell_ids[k])
        for k, encoded in zip(changed_next.tolist(), new_next[changed_next].tolist()):
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
        is byte-exact. The active cells' mask bits are read as one list
        and their new ``token``/``signal`` written back once.
        """
        arrays = self.arrays
        system = self.system
        masks = ne_prev_masks(arrays)
        active = masks.any(axis=0)
        active |= arrays.token != NO_CELL
        active |= arrays.signal != NO_CELL
        active &= ~arrays.failed
        active_ks = np.flatnonzero(active)

        report = SignalPhaseReport()
        cell_ids = self._cell_ids
        states = self._states
        width = arrays.width
        params = system.params
        policy = system.token_policy
        ref = arrays.ref
        tokens: List[int] = []
        signals: List[int] = []
        for k, (west, south, north, east) in zip(
            active_ks.tolist(), masks[:, active_ks].T.tolist()
        ):
            ne_prev = set()
            if west:
                ne_prev.add(cell_ids[k - 1])
            if south:
                ne_prev.add(cell_ids[k - width])
            if north:
                ne_prev.add(cell_ids[k + width])
            if east:
                ne_prev.add(cell_ids[k + 1])
            state = states[k]
            _signal_step(state, ne_prev, params, policy, report)
            tokens.append(ref(state.token))
            signals.append(ref(state.signal))
        arrays.token[active_ks] = tokens
        arrays.signal[active_ks] = signals
        return report

    def _move_phase(self, signal_report: SignalPhaseReport) -> MovePhaseReport:
        """Move derived from this round's grants (``movers_from_grants``);
        the member counts follow the transfers in one subtraction and one
        addition."""
        report = self.system.move_cells(movers_from_grants(signal_report.granted))
        transfers = report.transfers
        if transfers:
            flat = self.arrays.flat
            member_count = self.arrays.member_count
            np.subtract.at(member_count, [flat(t.src) for t in transfers], 1)
            entered = [flat(t.dst) for t in transfers if not t.consumed]
            if entered:
                np.add.at(member_count, entered, 1)
        return report

    def _on_produced(self, produced) -> None:
        """Count fresh entities at their source cells, in one addition."""
        if produced:
            flat = self.arrays.flat
            np.add.at(self.arrays.member_count, [flat(e.cell) for e in produced], 1)
