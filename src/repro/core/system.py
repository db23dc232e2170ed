"""The composed ``System`` automaton (paper Section II-B).

``System`` is the ensemble of all ``N x N`` cells plus the environment
hooks: ``fail``/``recover`` transitions and source-cell entity insertion.
One :meth:`System.update` is the paper's atomic ``update`` transition — a
synchronous round applying, in order, the Route, Signal, and Move
functions to every non-faulty cell, followed by source production.

The class is deliberately free of experiment logic (no fault sampling, no
metrics): fault models live in :mod:`repro.faults`, measurement in
:mod:`repro.metrics`, and the round loop composing them in
:mod:`repro.sim.simulator`. This keeps ``System`` exactly the object the
paper's proofs talk about, which is what the monitors and the exhaustive
explorer check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.cell import CellState, INFINITY
from repro.core.dirty import LiveDistView
from repro.core.entity import Entity
from repro.core.move import MovePhaseReport, apply_moves, collect_movers
from repro.core.params import Parameters
from repro.core.policies import RoundRobinTokenPolicy, TokenPolicy
from repro.core.route import RoutePhaseReport, route_cells, route_phase
from repro.core.signal import SignalPhaseReport, signal_cells, signal_phase
from repro.core.sources import EagerSource, SourcePolicy
from repro.geometry.point import Point
from repro.grid.topology import CellId, Grid


@dataclass
class RoundReport:
    """Everything observable about one ``update`` transition."""

    round_index: int
    route: RoutePhaseReport
    signal: SignalPhaseReport
    move: MovePhaseReport
    produced: List[Entity] = field(default_factory=list)

    @property
    def consumed_count(self) -> int:
        return len(self.move.consumed)


def run_round(
    system,
    route: Callable[[], RoutePhaseReport],
    signal: Callable[[RoutePhaseReport], SignalPhaseReport],
    move: Callable[[SignalPhaseReport], MovePhaseReport],
    on_produced: Optional[Callable[[List[Entity]], None]] = None,
) -> RoundReport:
    """One ``update`` transition of ``system``, from the given phases.

    The one place the round's shape is written: Route, then Signal (fed
    the Route report), then Move (fed the Signal report), then source
    production, with a ``phase_observer`` notification after each of
    the four, so predicates tied to a point inside the transition (H
    right after Signal, Lemma 3) are checked under every realization.
    ``on_produced`` sees the fresh entities after the last notification.
    The round's report carries the index it ran at; the index then
    advances. Every system's ``update`` and every round engine call
    this, so they differ only in how each phase is computed.
    """
    route_report = route()
    system._notify_phase("route")
    signal_report = signal(route_report)
    system._notify_phase("signal")
    move_report = move(signal_report)
    system._notify_phase("move")
    system.total_consumed += len(move_report.consumed)
    produced = system._produce()
    system._notify_phase("produce")
    if on_produced is not None:
        on_produced(produced)
    report = RoundReport(
        system.round_index, route_report, signal_report, move_report, produced
    )
    system.round_index += 1
    return report


class System:
    """The paper's ``System``: grid, parameters, target, sources, cells.

    Parameters
    ----------
    grid:
        The cell lattice.
    params:
        Protocol parameters ``(l, rs, v)``.
    tid:
        Identifier of the unique target cell (consumes entities).
    sources:
        Mapping from source-cell identifier to its production policy.
        Defaults to no sources; ``{cell: EagerSource()}`` reproduces the
        paper's saturated-offered-load setup.
    token_policy:
        How cells choose/rotate their Signal token (default round-robin).
    rng:
        Randomness for source policies (the protocol itself is
        deterministic); defaults to a fixed-seed generator.
    """

    #: The round engines that can run this kind of system (``None``: all
    #: of them), and the name ``repro.sim.engine.make_engine`` gives the
    #: kind when it refuses another engine.
    engines: Optional[Tuple[str, ...]] = None
    kind = "single-flow systems"

    def __init__(
        self,
        grid: Grid,
        params: Parameters,
        tid: CellId,
        sources: Optional[Mapping[CellId, SourcePolicy]] = None,
        token_policy: Optional[TokenPolicy] = None,
        rng: Optional[random.Random] = None,
    ):
        grid.require(tid)
        self.grid = grid
        self.params = params
        self.tid = tid
        self.sources: Dict[CellId, SourcePolicy] = dict(sources or {})
        for src in self.sources:
            grid.require(src)
            if src == tid:
                raise ValueError("the target cell cannot be a source")
        self.token_policy = token_policy or RoundRobinTokenPolicy()
        self.rng = rng or random.Random(0)
        self.cells: Dict[CellId, CellState] = {
            cid: CellState(cell_id=cid) for cid in grid.cells()
        }
        self.cells[tid].dist = 0.0
        self.round_index = 0
        self._next_uid = 0
        self.total_produced = 0
        self.total_consumed = 0
        #: Optional callback ``(phase_name, system) -> None`` invoked after
        #: each sub-phase of ``update`` ("route", "signal", "move",
        #: "produce"). Monitors use it to evaluate predicates that only
        #: hold at specific points within the atomic transition (e.g. the
        #: paper's H holds post-Signal but not post-Move; Lemma 3).
        self.phase_observer = None
        #: Optional callback ``(event, cell_id) -> None`` fired on the
        #: out-of-round environment transitions that change what a cell's
        #: neighbors observe: ``"fail"`` / ``"recover"`` (only on actual
        #: transitions — the idempotent no-op cases stay silent),
        #: ``"relocate"`` (target relocation, fired for both the old and
        #: the new target cell), and
        #: ``"members"`` (direct entity seeding). Whoever mirrors or
        #: tracks cell state chains into it: the incremental engine
        #: seeds its dirty sets, the vectorized engine resyncs its
        #: arrays, the shard coordinator queues the event for the
        #: owning worker, and the fault injector's ``LiveSplit`` keeps
        #: its live/failed lists. A bare ``System`` leaves it None.
        self.cell_observer = None

    # ------------------------------------------------------------------
    # Environment transitions
    # ------------------------------------------------------------------

    def fail(self, cid: CellId) -> None:
        """The ``fail(<i,j>)`` transition: crash a cell.

        Idempotent on already-failed cells (matching the paper's effect
        clause, which simply sets the flags).
        """
        self.grid.require(cid)
        state = self.cells[cid]
        already_failed = state.failed
        state.mark_failed()
        if not already_failed:
            self._notify_cell_event("fail", cid)

    def recover(self, cid: CellId) -> None:
        """Un-crash a cell (the Figure 9 failure/recovery model).

        Recovery of the target restores ``dist = 0`` so Route re-converges
        (Section IV). No-op on non-failed cells.
        """
        self.grid.require(cid)
        state = self.cells[cid]
        if state.failed:
            state.mark_recovered(is_target=(cid == self.tid))
            self._notify_cell_event("recover", cid)

    def relocate_target(self, new_tid: CellId) -> None:
        """Move the routing destination to another cell mid-run.

        Models a mobile target (the ``rotating_target`` adversary; cf.
        self-stabilization with mobile destinations, arXiv:0708.0909).
        The old target reverts to an ordinary unconverged cell
        (``dist = INFINITY``) and Route re-stabilizes onto the new one
        within the Lemma 6 horizon. Entities already inside the new
        target cell simply stay: routing consumes on *transfer into* the
        target, and stationary residents never violate safety.
        """
        self.grid.require(new_tid)
        if new_tid == self.tid:
            return
        if new_tid in self.sources:
            raise ValueError(f"cannot relocate the target onto source {new_tid}")
        if self.cells[new_tid].failed:
            raise ValueError(f"cannot relocate the target onto failed cell {new_tid}")
        old_tid = self.tid
        self.tid = new_tid
        self.cells[old_tid].mark_retargeted(False)
        self.cells[new_tid].mark_retargeted(True)
        self._notify_cell_event("relocate", old_tid)
        self._notify_cell_event("relocate", new_tid)

    def failed_cells(self) -> Set[CellId]:
        """``F(x)``: identifiers of currently failed cells."""
        return {cid for cid, s in self.cells.items() if s.failed}

    def non_faulty_cells(self) -> Set[CellId]:
        """``NF(x)``: identifiers of currently non-faulty cells."""
        return {cid for cid, s in self.cells.items() if not s.failed}

    # ------------------------------------------------------------------
    # The update transition
    # ------------------------------------------------------------------

    def update(self) -> RoundReport:
        """One synchronous round: Route; Signal; Move; source production,
        each phase a full sweep over every cell."""
        return run_round(
            self,
            lambda: route_phase(self.grid, self.cells, self.tid),
            lambda route: signal_phase(
                self.grid, self.cells, self.params, self.token_policy
            ),
            lambda signal: self.move_cells(self.movers()),
        )

    # -- one phase over given cells (the incremental engine's sweeps) ----

    def route_cells(self, cids: Iterable[CellId]) -> RoutePhaseReport:
        """Route at ``cids`` (row-major): the core loop, reading the live
        dists, which are the pre-phase ones because it writes nothing
        until every listed cell is computed."""
        cells = self.cells
        return route_cells(self.grid, cells, self.tid, cids, LiveDistView(cells))

    def signal_cells(self, cids: Iterable[CellId]) -> SignalPhaseReport:
        """Signal at the non-failed cells among ``cids`` (row-major)."""
        return signal_cells(
            self.grid, self.cells, self.params, self.token_policy, cids
        )

    def movers(self) -> List[Tuple[CellId, CellId]]:
        """The ``(mover, next)`` pairs whose ``next`` granted the mover."""
        return collect_movers(self.cells)

    def move_cells(self, movers: List[Tuple[CellId, CellId]]) -> MovePhaseReport:
        """Move the given ``(mover, next)`` pairs, in order."""
        return apply_moves(self.grid, self.cells, self.params, self.consumes, movers)

    def consumes(self, entity: Entity, dst: CellId) -> bool:
        """Does ``dst`` consume ``entity`` on arrival? (It is the target.)"""
        return dst == self.tid

    def _notify_phase(self, name: str) -> None:
        if self.phase_observer is not None:
            self.phase_observer(name, self)

    def _notify_cell_event(self, event: str, cid: CellId) -> None:
        if self.cell_observer is not None:
            self.cell_observer(event, cid)

    def run(self, rounds: int) -> List[RoundReport]:
        """Run ``rounds`` consecutive updates (no faults) and collect reports."""
        return [self.update() for _ in range(rounds)]

    def _produce(self) -> List[Entity]:
        """Let each non-faulty source add at most one safely placed entity."""
        produced: List[Entity] = []
        for cid in sorted(self.sources):
            state = self.cells[cid]
            if state.failed:
                continue
            candidate = self.sources[cid].place(
                state, self.params, self.round_index, self.rng
            )
            if candidate is None:
                continue
            entity = self._spawn(candidate)
            state.add_entity(entity)
            produced.append(entity)
        return produced

    def _spawn(self, center: Point) -> Entity:
        entity = Entity(
            uid=self._next_uid,
            x=center.x,
            y=center.y,
            birth_round=self.round_index,
            side=self.params.l,
        )
        self._next_uid += 1
        self.total_produced += 1
        return entity

    # ------------------------------------------------------------------
    # Direct state manipulation (tests, explorer, pre-loaded scenarios)
    # ------------------------------------------------------------------

    def seed_entity(self, cid: CellId, x: float, y: float) -> Entity:
        """Place a fresh entity at an absolute position (setup helper)."""
        self.grid.require(cid)
        entity = self._spawn(Point(x, y))
        self.cells[cid].add_entity(entity)
        self._notify_cell_event("members", cid)
        return entity

    def entity_count(self) -> int:
        """Entities currently present across all cells."""
        return sum(len(s.members) for s in self.cells.values())

    def all_entities(self) -> List[Entity]:
        """Every entity in the system, in (cell, uid) order."""
        result: List[Entity] = []
        for cid in sorted(self.cells):
            result.extend(self.cells[cid].entities())
        return result

    # ------------------------------------------------------------------
    # Path distance / target connectivity (paper Section III-B)
    # ------------------------------------------------------------------

    def path_distance(self) -> Dict[CellId, float]:
        """``rho(x, <i,j>)``: BFS hop distance to ``tid`` through non-faulty
        cells (infinity for failed or disconnected cells).

        This is the *ground truth* the routing protocol stabilizes to; the
        monitors compare ``dist`` against it.
        """
        rho: Dict[CellId, float] = {cid: INFINITY for cid in self.cells}
        if self.cells[self.tid].failed:
            return rho
        rho[self.tid] = 0.0
        frontier: List[CellId] = [self.tid]
        depth = 0.0
        while frontier:
            depth += 1.0
            nxt: List[CellId] = []
            for cid in frontier:
                for nbr in self.grid.neighbors(cid):
                    if self.cells[nbr].failed or rho[nbr] != INFINITY:
                        continue
                    rho[nbr] = depth
                    nxt.append(nbr)
            frontier = nxt
        return rho

    def target_connected(self) -> Set[CellId]:
        """``TC(x)``: cells with a finite path distance to the target."""
        rho = self.path_distance()
        return {cid for cid, value in rho.items() if value != INFINITY}

    def clone(self) -> "System":
        """Deep copy of the full system state (explorer / what-if probes).

        Uses ``type(self)`` so protocol variants (e.g. the greedy
        baseline) clone as themselves; subclasses with extra constructor
        state must override and extend this.

        Stateful policies are cloned through their ``clone()`` protocol
        method: sharing a ``CappedSource`` counter or a
        ``RandomTokenPolicy`` RNG between clone and original would let a
        what-if probe corrupt the real system's production cap and
        random stream.
        """
        other = type(self)(
            grid=self.grid,
            params=self.params,
            tid=self.tid,
            sources={cid: policy.clone() for cid, policy in self.sources.items()},
            token_policy=self.token_policy.clone(),
            rng=random.Random(),
        )
        other.rng.setstate(self.rng.getstate())
        other.cells = {cid: state.clone() for cid, state in self.cells.items()}
        other.round_index = self.round_index
        other._next_uid = self._next_uid
        other.total_produced = self.total_produced
        other.total_consumed = self.total_consumed
        return other


def build_corridor_system(
    grid: Grid,
    params: Parameters,
    path_cells: Sequence[CellId],
    source_policy: Optional[SourcePolicy] = None,
    token_policy: Optional[TokenPolicy] = None,
    rng: Optional[random.Random] = None,
    fail_complement: bool = True,
) -> System:
    """The paper's corridor workload: source at the head of ``path_cells``,
    target at the tail, and (optionally) every off-path cell pre-failed so
    routing has exactly one feasible route.
    """
    if len(path_cells) < 2:
        raise ValueError("a corridor needs at least source and target cells")
    source, target = path_cells[0], path_cells[-1]
    system = System(
        grid=grid,
        params=params,
        tid=target,
        sources={source: source_policy or EagerSource()},
        token_policy=token_policy,
        rng=rng,
    )
    if fail_complement:
        alive = set(path_cells)
        for cid in grid.cells():
            if cid not in alive:
                system.fail(cid)
    return system
