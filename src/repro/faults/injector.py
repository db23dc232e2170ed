"""Fault injection: applying a fault model to a ``System``.

The injector owns its own rng stream (independent of the system's source
rng) so that fault randomness and arrival randomness can be seeded and
varied independently across experiment repetitions.

The per-round decision history is a shallow recent window (a long run —
Figure 9 uses K = 20000, and ``repro serve`` runs indefinitely — must not
grow memory linearly with rounds; traces and the serve event stream
carry the full fault record); pass ``history_limit=None`` to keep every
decision. Aggregate counters (``total_failures`` /
``total_recoveries``) and ``last_disruption_round`` are exact regardless
of the cap.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core.system import System
from repro.faults.model import FaultDecision, FaultModel, NoFaults
from repro.grid.topology import CellId, Grid

#: Default cap on retained per-round decisions.
DEFAULT_HISTORY_LIMIT = 256


class FaultInjector:
    """Per-round driver: consult the model, apply fail/recover to the system.

    ``history`` keeps the most recent ``history_limit`` decisions
    (``None`` = unbounded, the pre-cap behavior).
    """

    def __init__(
        self,
        model: Optional[FaultModel] = None,
        rng: Optional[random.Random] = None,
        history_limit: Optional[int] = DEFAULT_HISTORY_LIMIT,
        metrics=None,
        relocations: Sequence[Tuple[int, CellId]] = (),
    ):
        if history_limit is not None and history_limit <= 0:
            raise ValueError(
                f"history_limit must be positive or None, got {history_limit}"
            )
        self.model = model or NoFaults()
        self.rng = rng or random.Random(0)
        #: Optional :class:`repro.obs.metrics.MetricsRegistry`; when set,
        #: ``faults.failed`` / ``faults.recovered`` counters track every
        #: applied transition. Assignable after construction (the
        #: simulator binds it when observability is enabled).
        self.metrics = metrics
        #: Scheduled target relocations ``(round_index, new_target)``,
        #: applied (in round order) before the fault decision of the
        #: matching round. Compiled from adversary scripts such as
        #: ``rotating_target``; counts as a disruption for
        #: ``last_disruption_round``.
        self.relocations: Tuple[Tuple[int, CellId], ...] = tuple(
            sorted((int(rnd), tuple(cell)) for rnd, cell in relocations)
        )
        self._relocation_pos = 0
        self.history: Deque[FaultDecision] = deque(maxlen=history_limit)
        self.total_failures = 0
        self.total_recoveries = 0
        self.rounds_applied = 0
        self._last_disruption: Optional[int] = None
        self._order_grid: Optional[Grid] = None
        self._order: List[CellId] = []

    def apply(self, system: System) -> FaultDecision:
        """Decide and apply this round's fault events (before ``update``)."""
        while (
            self._relocation_pos < len(self.relocations)
            and self.relocations[self._relocation_pos][0] == system.round_index
        ):
            _, new_tid = self.relocations[self._relocation_pos]
            system.relocate_target(new_tid)
            self._relocation_pos += 1
            self._last_disruption = self.rounds_applied
        cells = system.cells
        alive: List[CellId] = []
        failed: List[CellId] = []
        for cid in self._ascending_ids(system):
            if cells[cid].failed:
                failed.append(cid)
            else:
                alive.append(cid)
        decision = self.model.decide(system.round_index, alive, failed, self.rng)
        for cid in sorted(decision.fail):
            system.fail(cid)
        for cid in sorted(decision.recover):
            system.recover(cid)
        self.history.append(decision)
        if not decision.is_quiet:
            self._last_disruption = self.rounds_applied
        self.rounds_applied += 1
        self.total_failures += len(decision.fail)
        self.total_recoveries += len(decision.recover)
        if self.metrics is not None and not decision.is_quiet:
            if decision.fail:
                self.metrics.counter("faults.failed").inc(len(decision.fail))
            if decision.recover:
                self.metrics.counter("faults.recovered").inc(len(decision.recover))
        return decision

    def _ascending_ids(self, system: System) -> List[CellId]:
        """Every cell id of ``system.grid`` in ascending order, sorted once
        per grid: the fault coins are drawn in this order."""
        if system.grid != self._order_grid:
            self._order = sorted(system.cells)
            self._order_grid = system.grid
        return self._order

    @property
    def last_disruption_round(self) -> Optional[int]:
        """Index of the most recent round with any fault activity.

        Tracked incrementally, so it stays exact even after older
        decisions have been evicted from the bounded ``history``.
        """
        return self._last_disruption
