"""Pluggable round engines: how one ``update`` transition is executed.

The paper's ``update`` is a *synchronous* transition over all ``N x N``
cells, and :meth:`repro.core.system.System.update` implements it as three
full sweeps (Route, Signal, Move) plus source production. That full-sweep
execution is the **reference engine** here — it stays exactly the object
the paper's proofs talk about.

The protocol, however, is locally triggered: a cell's Route output can
only change when a neighbor's ``dist`` changed or a fault event touched
the neighborhood, and Signal/Move are provable no-ops for cells with no
token, no signal, and an empty ``NEPrev``. The **incremental engine**
exploits this with per-phase dirty sets, so quiescent regions of the grid
cost zero per round — the performance lever for large grids — while
producing *byte-identical* state, reports, metrics, and event traces.
:mod:`repro.testing.differential` is the lockstep harness that proves the
equivalence on randomized fault-injected configs; the dirty-set rules are
documented in ``docs/performance.md``.

The **vectorized engine** (:mod:`repro.sim.vectorized`) attacks the same
ceiling from the other side: instead of skipping quiescent cells it
keeps a structure-of-arrays mirror (:mod:`repro.core.arrays`) and runs
Route as whole-grid numpy operations. Only Route is array-native:
Signal runs the per-cell step on the cells its masks mark active, and
Move is the shared per-mover code. Timed engine-only, it runs at 0.51x
the incremental engine's rounds per second on the 256² corridor, 0.87x
on city-96, 1.01x on contention-16 and 1.28-1.33x on the dense grids.
It requires numpy (a soft dependency) and passes the same 3-way
lockstep matrix.

Engine selection precedence: an explicit argument (``Simulator(...,
engine=...)`` / ``build_simulation(..., engine=...)``), then the config
field (``SimulationConfig.engine``), then the ``REPRO_ENGINE``
environment variable, then :data:`DEFAULT_ENGINE`. The environment hook
is what the sweep/parallel/supervisor stack and the benchmark harness
use: worker processes inherit it, so a whole figure sweep switches
engines without touching any config.

Dirty-set rules: Route and Signal follow :mod:`repro.core.dirty`, the
one definition the incremental engine and the shard workers share (see
docs/performance.md for the full derivation). The engine runs each
phase through the system's one-phase methods (``route_cells``,
``signal_cells``, ``move_cells``), which a ``System`` and a
:class:`~repro.multiflow.system.MultiCommoditySystem` both implement,
so the reference and incremental engines run both kinds of system
(the other engines read single-flow state and are refused one). The
other two phases:

========  ==========================================================
Move      movers are derived from this round's grant report: cell
          ``m`` moves iff its ``next`` granted it the signal this
          round, which under the Signal invariant is equivalent to the
          reference's full ``effective_signal`` scan.
produce   never skipped: source policies may consume RNG every round
          (e.g. Bernoulli arrivals), so all non-faulty sources run to
          keep the random streams identical.
========  ==========================================================

Token-policy contract: a policy's ``initial(empty_set)`` must return
``None`` without consuming randomness (all built-in policies do) —
otherwise skipping quiescent cells would desynchronize the RNG stream
from the reference engine.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Type

from repro.core.dirty import DirtyCells
from repro.core.move import MovePhaseReport, movers_from_grants
from repro.core.route import RoutePhaseReport
from repro.core.signal import SignalPhaseReport
from repro.core.system import RoundReport, System, run_round
from repro.grid.topology import CellId

#: Environment variable naming the engine sweeps/benchmarks should use.
ENV_ENGINE = "REPRO_ENGINE"

DEFAULT_ENGINE = "reference"


class RoundEngine:
    """Interface: execute one ``update`` transition on a ``System``.

    Engines must be *observationally identical*: same post-round state,
    same :class:`~repro.core.system.RoundReport` (including list
    ordering), same ``phase_observer`` notifications, and same RNG
    consumption. Only the work done to get there may differ.
    """

    name: str = "abstract"

    #: Optional :class:`repro.obs.metrics.MetricsRegistry`; the simulator
    #: wires its registry here so engines with internal machinery (the
    #: sharded fleet's supervision/channel counters) can report into the
    #: same catalog. Plain engines never touch it.
    metrics = None

    def __init__(self, system: System, config=None):
        self.system = system
        #: The run's :class:`~repro.sim.config.SimulationConfig`, when the
        #: simulator has one — engines with deployment knobs (the sharded
        #: engine's ``shards`` field) read it; plain engines ignore it.
        self.config = config

    def step(self) -> RoundReport:
        """Run one round from this engine's phases; returns its report.

        :func:`~repro.core.system.run_round` assembles the round: an
        engine supplies ``_route_phase()``, ``_signal_phase(route)``,
        ``_move_phase(signal)`` and, optionally, ``_on_produced``.
        """
        return run_round(
            self.system,
            self._route_phase,
            self._signal_phase,
            self._move_phase,
            self._on_produced,
        )

    #: Optional hook ``(produced) -> None`` run after production.
    _on_produced = None

    def close(self) -> None:
        """Release engine-held resources (worker processes, channels).

        Called by ``Simulator.summarize``; stepping again after a close
        must be valid (engines re-acquire lazily). No-op by default.
        """


class ReferenceEngine(RoundEngine):
    """The full-sweep execution: delegate to ``System.update()`` verbatim."""

    name = "reference"

    def step(self) -> RoundReport:
        return self.system.update()


class IncrementalEngine(RoundEngine, DirtyCells):
    """Dirty-set execution: evaluate only cells whose inputs could have
    changed; quiescent regions cost zero per round.

    Equivalence to the reference engine is enforced by the differential
    harness (``tests/test_engine_differential.py``) over randomized
    fault-injected configurations; the invariants each dirty set
    maintains are spelled out in :mod:`repro.core.dirty`, whose rules
    (``_mark_*``, ``_keep_hot``, ``invalidate``) the engine inherits
    with the whole grid as its owned cells.
    """

    name = "incremental"

    def __init__(self, system: System, config=None):
        super().__init__(system, config)
        self._track(system.grid)
        self._chained_cell_observer = system.cell_observer
        system.cell_observer = self._on_cell_event

    def _on_cell_event(self, event: str, cid: CellId) -> None:
        """Environment transition (fail/recover/relocate/seeding) touched
        ``cid``. Only ``"members"`` (direct entity seeding) is the narrow
        membership-only case; every other event — including ones added
        later, like ``"relocate"`` — conservatively invalidates the full
        neighborhood, so new environment transitions are correct by
        default instead of silently under-invalidated."""
        if event == "members":
            self._mark_membership_change(cid)
        else:
            self._mark_fault_event(cid)
        if self._chained_cell_observer is not None:
            self._chained_cell_observer(event, cid)

    # ------------------------------------------------------------------
    # The phases (assembled by RoundEngine.step)
    # ------------------------------------------------------------------

    def _route_phase(self) -> RoutePhaseReport:
        """Route over the dirty set only (Jacobi semantics preserved:
        ``route_cells`` writes nothing until every dirty cell is
        evaluated)."""
        report = self.system.route_cells(self._take_route_dirty())
        for cid in report.changed_dist:
            self._mark_dist_change(cid)
        return report

    def _signal_phase(self, route_report: RoutePhaseReport) -> SignalPhaseReport:
        """Signal over pending cells only.

        Invariant: every non-pending, non-faulty cell holds
        ``(NEPrev, token, signal) = (empty, bot, bot)`` and its freshly
        computed ``NEPrev`` would still be empty — so skipping it is a
        byte-exact no-op (and consumes no policy randomness; see the
        token-policy contract in the module docstring).
        """
        cells = self.system.cells
        for changed in route_report.changed_next:
            self._mark_next_change(changed)
        pending = self._take_signal_pending()
        report = self.system.signal_cells(pending)
        for cid in pending:
            if not cells[cid].failed:
                self._keep_hot(cid, cells[cid].ne_prev)
        return report

    def _move_phase(self, signal_report: SignalPhaseReport) -> MovePhaseReport:
        """Move derived from this round's grants (``movers_from_grants``)."""
        report = self.system.move_cells(movers_from_grants(signal_report.granted))
        for transfer in report.transfers:
            self._mark_membership_change(transfer.src)
            if not transfer.consumed:
                self._mark_membership_change(transfer.dst)
        return report

    def _on_produced(self, produced) -> None:
        """Fresh entities change their source cells' observed emptiness."""
        for entity in produced:
            self._mark_membership_change(entity.cell)


# Imported here (not at the top) because the vectorized, timed and
# sharded engines subclass RoundEngine: by this point every name they
# need is defined, so the circular module pairs resolve in either
# import order.
from repro.sim.vectorized import VectorizedEngine  # noqa: E402
from repro.netsim.engine import TimedEngine  # noqa: E402
from repro.shard.engine import ShardedEngine  # noqa: E402

#: Registry of selectable engines (name -> class). ``docs/performance.md``
#: documents each entry; ``tests/test_docs.py`` diffs the table against
#: this registry so the page cannot drift.
ENGINES: Dict[str, Type[RoundEngine]] = {
    ReferenceEngine.name: ReferenceEngine,
    IncrementalEngine.name: IncrementalEngine,
    VectorizedEngine.name: VectorizedEngine,
    TimedEngine.name: TimedEngine,
    ShardedEngine.name: ShardedEngine,
}


def resolve_engine_name(
    explicit: Optional[str] = None,
    environ: Optional[Dict[str, str]] = None,
) -> str:
    """Pick the engine name: explicit > ``REPRO_ENGINE`` > default."""
    env = os.environ if environ is None else environ
    name = explicit or env.get(ENV_ENGINE) or DEFAULT_ENGINE
    if name not in ENGINES:
        raise ValueError(
            f"unknown round engine {name!r}; available: {sorted(ENGINES)}"
        )
    return name


def make_engine(name: str, system: System, config=None) -> RoundEngine:
    """Instantiate the named engine attached to ``system``.

    ``config`` (the run's :class:`~repro.sim.config.SimulationConfig`)
    is passed through to the engine; engines with deployment knobs —
    the sharded engine's ``shards`` — read it, the rest ignore it.
    Raises ``ValueError`` for an unknown name, and for an engine the
    system's class does not name in its ``engines`` (a multi-commodity
    system, a baseline; the name may come from ``REPRO_ENGINE``, past
    config validation).
    """
    if name not in ENGINES:
        raise ValueError(
            f"unknown round engine {name!r}; available: {sorted(ENGINES)}"
        )
    supported = getattr(system, "engines", None)
    if supported is not None and name not in supported:
        raise ValueError(
            f"engine {name!r} does not support {system.kind}; "
            f"choose from {sorted(supported)}"
        )
    return ENGINES[name](system, config)
