"""Fault injection: applying a fault model to a ``System``.

The injector owns its own rng stream (independent of the system's source
rng) so that fault randomness and arrival randomness can be seeded and
varied independently across experiment repetitions.

The model reads the ascending lists of live and failed cells every
round. The injector does not rebuild them from the whole grid: it scans
a system once, the first time it meets it (the simulator introduces
them at build), and then keeps both lists current from the system's
``fail``/``recover`` events, so a round costs what changed rather than
what exists. It also notes the target then, and tells the model each
time the target has moved (:meth:`FaultModel.follow_target`), so a
protected target stays protected where it goes.

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
import weakref
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core.system import System
from repro.faults.model import ComposedFaultModel, FaultDecision, FaultModel, NoFaults
from repro.faults.schedule import FaultEvent, ScriptedFaultModel
from repro.grid.topology import CellId

#: Default cap on retained per-round decisions.
DEFAULT_HISTORY_LIMIT = 256


class LiveSplit:
    """The ascending live and failed cell ids of one system.

    Built by one scan of the system's cells, then kept current from its
    ``fail``/``recover`` events: the split chains itself into
    ``system.cell_observer`` the way the round engines do, and passes
    every event on to the observer it displaced. It holds the lists and
    that observer, never the system, so installing it adds no reference
    cycle. Like the engines' mirrors, it relies on failure state changing
    only through the ``System`` transition methods.
    """

    __slots__ = ("alive", "failed", "tid", "_chained")

    def __init__(self, system: System):
        #: The target the model last decided for (None without one).
        self.tid = getattr(system, "tid", None)
        cells = system.cells
        self.alive: List[CellId] = []
        self.failed: List[CellId] = []
        for cid in sorted(cells):
            (self.failed if cells[cid].failed else self.alive).append(cid)
        self._chained = system.cell_observer
        system.cell_observer = self._on_cell_event

    def _on_cell_event(self, event: str, cid: CellId) -> None:
        if event == "fail":
            _shift(self.alive, self.failed, cid)
        elif event == "recover":
            _shift(self.failed, self.alive, cid)
        if self._chained is not None:
            self._chained(event, cid)


def _shift(source: List[CellId], target: List[CellId], cid: CellId) -> None:
    """Move ``cid`` between two ascending lists, by position."""
    del source[bisect_left(source, cid)]
    insort(target, cid)


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
        #: applied in order before the fault decision of the first
        #: round at or after theirs. Compiled from adversary scripts such as
        #: ``rotating_target``; counts as a disruption for
        #: ``last_disruption_round``. Extended by :meth:`splice`.
        self.relocations: Tuple[Tuple[int, CellId], ...] = tuple(
            sorted((int(rnd), tuple(cell)) for rnd, cell in relocations)
        )
        self._relocation_pos = 0
        self.history: Deque[FaultDecision] = deque(maxlen=history_limit)
        self.total_failures = 0
        self.total_recoveries = 0
        self.rounds_applied = 0
        self._last_disruption: Optional[int] = None
        #: One :class:`LiveSplit` per system applied to, dropped with it.
        self._splits: "weakref.WeakKeyDictionary[System, LiveSplit]" = (
            weakref.WeakKeyDictionary()
        )

    def apply(self, system: System) -> FaultDecision:
        """Decide and apply this round's fault events (before ``update``)."""
        while (
            self._relocation_pos < len(self.relocations)
            and self.relocations[self._relocation_pos][0] <= system.round_index
        ):
            _, new_tid = self.relocations[self._relocation_pos]
            system.relocate_target(new_tid)
            self._relocation_pos += 1
            self._last_disruption = self.rounds_applied
        split = self.split(system)
        if split.tid != getattr(system, "tid", None):
            # The target moved since the last decision, by a relocation
            # above or one made between rounds (serve's ``relocate``).
            self.model.follow_target(split.tid, system.tid)
            split.tid = system.tid
        decision = self.model.decide(
            system.round_index, split.alive, split.failed, self.rng
        )
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

    def split(self, system: System) -> LiveSplit:
        """The live/failed split of ``system``, scanned on first use."""
        split = self._splits.get(system)
        if split is None:
            split = self._splits[system] = LiveSplit(system)
        return split

    def splice(
        self,
        events: Sequence[FaultEvent] = (),
        relocations: Sequence[Tuple[int, CellId]] = (),
        offset: int = 0,
    ) -> None:
        """Play a scripted campaign on top of the running model.

        ``events`` and ``relocations`` are timed from the campaign's
        start, which is round ``offset``. The events become one
        :class:`ScriptedFaultModel` placed first in one flat
        :class:`ComposedFaultModel`, ahead of the earlier campaigns and
        the base model, so models that draw from the rng keep their
        order and stream. Campaigns whose last event is before
        ``offset`` are dropped: they can decide nothing more. A flat
        union equals the nested one (the composition subtracts every
        failure from the recoveries), so the decisions do not depend on
        how many campaigns were played, and neither does the cost of
        ``decide`` once they end.
        """
        models: List[FaultModel] = []
        if events:
            models.append(
                ScriptedFaultModel(
                    [
                        FaultEvent(e.round_index + offset, e.cell, e.kind)
                        for e in events
                    ]
                )
            )
        current = self.model
        parts = (
            current.models if isinstance(current, ComposedFaultModel) else (current,)
        )
        for model in parts:
            if isinstance(model, NoFaults):
                continue
            if isinstance(model, ScriptedFaultModel) and model.last_round < offset:
                continue
            models.append(model)
        if not models:
            self.model = NoFaults()
        elif len(models) == 1:
            self.model = models[0]
        else:
            self.model = ComposedFaultModel(tuple(models))
        if relocations:
            pending = list(self.relocations[self._relocation_pos :])
            pending.extend((rnd + offset, tuple(cell)) for rnd, cell in relocations)
            self.relocations = tuple(sorted(pending))
            self._relocation_pos = 0

    @property
    def last_disruption_round(self) -> Optional[int]:
        """Index of the most recent round with any fault activity.

        Tracked incrementally, so it stays exact even after older
        decisions have been evicted from the bounded ``history``.
        """
        return self._last_disruption
