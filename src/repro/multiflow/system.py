"""The multi-commodity round automaton.

One grid, many concurrent commodities (arXiv:1209.2058). Each round
runs the same three phases as the single-flow ``System`` — Route,
Signal, Move, then source production — generalized as follows:

* **Route** runs the Jacobi distance-vector relaxation once *per
  commodity*, against that commodity's target, into per-commodity
  ``dists`` / ``nexts`` tables. Ties between equal-distance neighbors
  are split ECMP-style: among the id-sorted tied neighbors, cell
  ``<i, j>`` routing commodity ``k`` picks index ``(k + i + j) mod
  |ties|`` — the ``(dist, commodity_id, cell_id)`` tie-break.
  Different commodities (and adjacent cells of one commodity) spread
  over distinct shortest paths instead of converging on one.
* **Signal** is the paper's token rule with one extra conjunct:
  a grant additionally requires *residency compatibility* — the
  holder's entities may only enter a cell that is empty, already
  resident to the same commodity, or their commodity's own target.
  Cells stay type-exclusive (one commodity per cell at a time), which
  is what lets one scalar token/signal per cell remain sound.
* **Move** steers each cell's entities along its *resident*
  commodity's next pointer and consumes an entity when it crosses
  into its own commodity's target; per-commodity produced/consumed
  ledgers are maintained alongside the scalar totals.
* **Production** iterates commodities in table order, gated by the
  system's :class:`~repro.multiflow.workload.WorkloadProfile` — the
  demand schedule — plus the usual route-exists and separation gates
  and the residency gate above.

The automaton deliberately reuses the core phase *reports*
(``RoutePhaseReport`` etc.) and the core ``CellState`` scalar fields
(``token`` / ``signal`` / ``ne_prev``), so the monitor suite, the
observability layer, and the canonical-state differential harness all
apply unchanged; per-commodity state lives in the ``dists`` /
``nexts`` dict extensions of :class:`MultiCommodityCellState`. The
phases call the core code (``_signal_step`` with the residency test as
its grant predicate, ``apply_moves`` with :meth:`consumes`, the core
entry-wall rule), and the system implements the one-phase methods
(``route_cells`` / ``signal_cells`` / ``move_cells``) the core
incremental engine drives, so the core ``reference`` and
``incremental`` engines run it.

Known limitation, documented in ``docs/multiflow.md``: commodities
forced head-to-head through shared corridors can gridlock;
:meth:`MultiCommoditySystem.detect_waiting_cycles` detects the
condition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.cell import (
    DIST_SENTINEL,
    INFINITY,
    CellState,
    dist_from_int,
    dist_to_int,
    effective_signal,
)
from repro.core.entity import Entity
from repro.core.move import MovePhaseReport, apply_moves
from repro.core.params import Parameters
from repro.core.policies import RoundRobinTokenPolicy, TokenPolicy
from repro.core.route import RoutePhaseReport
from repro.core.signal import SignalPhaseReport, _signal_step, gap_clear
from repro.core.sources import entry_wall_center
from repro.core.system import RoundReport, run_round
from repro.geometry.separation import fits_among
from repro.grid.topology import CellId, Grid
from repro.multiflow.commodities import Commodity, CommodityTable
from repro.multiflow.workload import WorkloadProfile, resolve_workload


def commodity_of(entity: Entity) -> str:
    """The commodity tag carried by an entity of this system."""
    return entity.commodity_name  # type: ignore[attr-defined]


@dataclass
class MultiCommodityCellState(CellState):
    """``CellState`` plus per-commodity routing tables.

    The scalar protocol fields (``token``, ``signal``, ``ne_prev``,
    ``members``, ``failed``) keep their core meaning — there is one
    token rule per cell, not per commodity. The scalar ``dist`` /
    ``next_id`` stay at their defaults (masked to "no route"): routing
    state lives in ``dists[name]`` / ``nexts[name]``.
    """

    dists: Dict[str, float] = field(default_factory=dict)
    nexts: Dict[str, Optional[CellId]] = field(default_factory=dict)

    @property
    def resident_commodity(self) -> Optional[str]:
        """The commodity of the entities currently in the cell.

        Type-exclusivity (enforced by Signal and production) makes the
        members' tags unanimous; an empty cell has no resident.
        """
        for entity in self.members.values():
            return commodity_of(entity)
        return None

    def clone(self) -> "MultiCommodityCellState":
        """An independent deep copy (entities and routing tables)."""
        copy = MultiCommodityCellState(
            cell_id=self.cell_id,
            next_id=self.next_id,
            ne_prev=set(self.ne_prev),
            dist=self.dist,
            token=self.token,
            signal=self.signal,
            failed=self.failed,
            dists=dict(self.dists),
            nexts=dict(self.nexts),
        )
        for entity in self.members.values():
            clone = entity.clone()
            clone.commodity_name = commodity_of(entity)  # type: ignore[attr-defined]
            copy.members[clone.uid] = clone
        return copy


class MultiCommoditySystem:
    """The multi-commodity system automaton.

    Drop-in compatible with the simulator and engine surface of the
    single-flow ``System``: ``update() -> RoundReport``, the one-phase
    methods, ``fail`` / ``recover``, ``phase_observer`` /
    ``cell_observer`` hooks, scalar ``total_produced`` /
    ``total_consumed``, plus the per-commodity ``produced_by_commodity``
    / ``consumed_by_commodity`` ledgers the conservation oracle audits.
    """

    #: Marks the system for the engine refusal in ``make_engine`` and the
    #: differential harness's canonical-state extension.
    is_multiflow = True

    def __init__(
        self,
        grid: Grid,
        params: Parameters,
        commodities: Union[CommodityTable, Sequence[Commodity]],
        workload: Union[str, WorkloadProfile, None] = None,
        token_policy: Optional[TokenPolicy] = None,
        rng: Optional[random.Random] = None,
    ):
        self.grid = grid
        self.params = params
        self.table = (
            commodities
            if isinstance(commodities, CommodityTable)
            else CommodityTable(commodities)
        ).validate(grid)
        self.workload = resolve_workload(workload)
        self.token_policy = token_policy or RoundRobinTokenPolicy()
        self.rng = rng or random.Random(0)
        self.cells: Dict[CellId, MultiCommodityCellState] = {
            cid: MultiCommodityCellState(cell_id=cid) for cid in grid.cells()
        }
        for commodity in self.table:
            for cid, cell in self.cells.items():
                cell.dists[commodity.name] = (
                    0.0 if cid == commodity.target else INFINITY
                )
                cell.nexts[commodity.name] = None
        self.round_index = 0
        self._next_uid = 0
        self.total_produced = 0
        self.total_consumed = 0
        self.produced_by_commodity: Dict[str, int] = {
            c.name: 0 for c in self.table
        }
        self.consumed_by_commodity: Dict[str, int] = {
            c.name: 0 for c in self.table
        }
        #: Same contract as ``System.phase_observer``.
        self.phase_observer: Optional[Callable] = None
        #: Same contract as ``System.cell_observer``.
        self.cell_observer: Optional[Callable] = None

    # ------------------------------------------------------------------
    # Environment transitions
    # ------------------------------------------------------------------

    def fail(self, cid: CellId) -> None:
        """Crash a cell: scalar flags plus per-commodity route masking."""
        self.grid.require(cid)
        state = self.cells[cid]
        already_failed = state.failed
        state.mark_failed()
        for name in self.table.names():
            state.dists[name] = INFINITY
            state.nexts[name] = None
        if not already_failed:
            self._notify_cell_event("fail", cid)

    def recover(self, cid: CellId) -> None:
        """Un-crash a cell; a commodity target recovers with dist 0."""
        self.grid.require(cid)
        state = self.cells[cid]
        if not state.failed:
            return
        state.mark_recovered(is_target=False)
        for commodity in self.table:
            state.dists[commodity.name] = (
                0.0 if commodity.target == cid else INFINITY
            )
            state.nexts[commodity.name] = None
        self._notify_cell_event("recover", cid)

    def failed_cells(self) -> Set[CellId]:
        """Identifiers of currently failed cells."""
        return {cid for cid, s in self.cells.items() if s.failed}

    def non_faulty_cells(self) -> Set[CellId]:
        """Identifiers of currently non-faulty cells."""
        return {cid for cid, s in self.cells.items() if not s.failed}

    def _notify_phase(self, name: str) -> None:
        if self.phase_observer is not None:
            self.phase_observer(name, self)

    def _notify_cell_event(self, event: str, cid: CellId) -> None:
        if self.cell_observer is not None:
            self.cell_observer(event, cid)

    # ------------------------------------------------------------------
    # The update transition
    # ------------------------------------------------------------------

    def update(self) -> RoundReport:
        """One synchronous round: Route; Signal; Move; production."""
        return run_round(
            self,
            lambda: self.route_cells(self.cells),
            lambda route: self.signal_cells(self.cells),
            lambda signal: self.move_cells(self.movers()),
        )

    def run(self, rounds: int) -> List[RoundReport]:
        """Run ``rounds`` consecutive updates (no faults)."""
        return [self.update() for _ in range(rounds)]

    # -- Route ---------------------------------------------------------

    def route_cells(self, cids: Iterable[CellId]) -> RoutePhaseReport:
        """Route at ``cids`` (row-major) for every commodity, computing
        every result before writing any (the Jacobi step of the core
        ``System.route_cells``). A cell is reported once when any of its
        commodities' dist (next) changed."""
        cells = self.cells
        commodities = [
            (index, c.name, c.target) for index, c in enumerate(self.table)
        ]
        updates = []
        for cid in cids:
            cell = cells[cid]
            if cell.failed:
                continue
            for index, name, target in commodities:
                if cid == target:
                    continue
                new_dist, new_next = self._route_step(index, cid, name)
                if new_dist != cell.dists[name] or new_next != cell.nexts[name]:
                    updates.append((cell, name, new_dist, new_next))
        changed_dist: Dict[CellId, None] = {}
        changed_next: Dict[CellId, None] = {}
        for cell, name, new_dist, new_next in updates:
            if new_dist != cell.dists[name]:
                cell.dists[name] = new_dist
                changed_dist[cell.cell_id] = None
            if new_next != cell.nexts[name]:
                cell.nexts[name] = new_next
                changed_next[cell.cell_id] = None
        return RoutePhaseReport(
            changed_dist=list(changed_dist), changed_next=list(changed_next)
        )

    def _route_step(
        self, commodity_index: int, cid: CellId, name: str
    ) -> Tuple[float, Optional[CellId]]:
        """One relaxation of commodity ``name`` (at ``commodity_index``
        in the table) with the ``(dist, commodity, cell)`` tie-break.

        Reads each neighbor's ``failed`` flag and ``dists[name]``
        directly, in ascending identifier order, converting the dist to
        the exact integral embedding (``dist_to_int``) as it is read, so
        the minimum and the tie set are computed without float ``==``.
        """
        cells = self.cells
        best = DIST_SENTINEL
        ties: List[CellId] = []
        for nbr in self.grid.neighbors_by_id(cid):
            state = cells[nbr]
            if state.failed:
                continue
            dist = dist_to_int(state.dists[name])
            if dist < best:
                best = dist
                ties = [nbr]
            elif dist == best:
                ties.append(nbr)
        if best == DIST_SENTINEL:
            return INFINITY, None
        i, j = cid
        pick = ties[(commodity_index + i + j) % len(ties)]
        return dist_from_int(best) + 1.0, pick

    # -- Signal --------------------------------------------------------

    def _moving_direction(self, cid: CellId) -> Optional[CellId]:
        """Where the cell's resident commodity wants to go next."""
        cell = self.cells[cid]
        resident = cell.resident_commodity
        if resident is None:
            return None
        return cell.nexts[resident]

    def signal_cells(self, cids: Iterable[CellId]) -> SignalPhaseReport:
        """Signal at the non-failed cells among ``cids`` (row-major): the
        core rule, with ``NEPrev`` read through residency and a grant
        test that checks residency before the gap, so a type-exclusion
        block is reported as ``"residency"`` even when the strip is also
        occupied (which it is, by the resident entities)."""
        report = SignalPhaseReport()

        def admits(cell, toward, params) -> bool:
            incoming = self.cells[cell.token].resident_commodity
            resident = cell.resident_commodity
            if not (
                resident is None
                or resident == incoming
                or self.table.by_name(incoming).target == cell.cell_id
            ):
                report.block_reasons[cell.cell_id] = "residency"
                return False
            if not gap_clear(cell, toward, params):
                report.block_reasons[cell.cell_id] = "gap"
                return False
            return True

        for cid in cids:
            cell = self.cells[cid]
            if cell.failed:
                continue
            ne_prev = {
                nbr
                for nbr in self.grid.neighbors(cid)
                if self.cells[nbr].members
                and not self.cells[nbr].failed
                and self._moving_direction(nbr) == cid
            }
            _signal_step(
                cell, ne_prev, self.params, self.token_policy, report, gap=admits
            )
        return report

    # -- Move ----------------------------------------------------------

    def movers(self) -> List[Tuple[CellId, CellId]]:
        """The ``(mover, next)`` pairs whose next hop (the resident
        commodity's) granted the mover."""
        return [
            (cid, nxt)
            for cid, cell in self.cells.items()
            if cell.members
            and not cell.failed
            and (nxt := self._moving_direction(cid)) is not None
            and effective_signal(self.cells[nxt]) == cid
        ]

    def move_cells(self, movers: List[Tuple[CellId, CellId]]) -> MovePhaseReport:
        """Move the given pairs (core ``apply_moves``) and book each
        consumed entity to its commodity's ledger."""
        report = apply_moves(self.grid, self.cells, self.params, self.consumes, movers)
        for entity in report.consumed:
            self.consumed_by_commodity[commodity_of(entity)] += 1
        return report

    def consumes(self, entity: Entity, dst: CellId) -> bool:
        """Does ``dst`` consume ``entity``? (Its commodity's target.)"""
        return self.table.by_name(commodity_of(entity)).target == dst

    # -- Production ----------------------------------------------------

    def _produce(self) -> List[Entity]:
        produced: List[Entity] = []
        for index, commodity in enumerate(self.table):
            if not self.workload.active(index, self.round_index):
                continue
            name = commodity.name
            for cid in sorted(commodity.sources):
                cell = self.cells[cid]
                if cell.failed:
                    continue
                resident = cell.resident_commodity
                if resident is not None and resident != name:
                    continue
                nxt = cell.nexts[name]
                if nxt is None:
                    continue
                candidate = entry_wall_center(cell, self.params, nxt)
                if not fits_among(candidate, cell.members.values(), self.params.d):
                    continue
                entity = Entity(
                    uid=self._next_uid,
                    x=candidate.x,
                    y=candidate.y,
                    birth_round=self.round_index,
                    side=self.params.l,
                )
                entity.commodity_name = name  # type: ignore[attr-defined]
                self._next_uid += 1
                cell.add_entity(entity)
                self.total_produced += 1
                self.produced_by_commodity[name] += 1
                produced.append(entity)
        return produced

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def entity_count(self) -> int:
        """Entities currently in flight, all commodities."""
        return sum(len(cell.members) for cell in self.cells.values())

    def in_flight_by_commodity(self) -> Dict[str, int]:
        """In-flight entity counts keyed by commodity name."""
        counts = {name: 0 for name in self.table.names()}
        for cell in self.cells.values():
            for entity in cell.members.values():
                counts[commodity_of(entity)] += 1
        return counts

    def check_type_exclusive(self) -> List[CellId]:
        """Cells currently holding entities of more than one commodity."""
        offenders = []
        for cid, cell in self.cells.items():
            tags = {commodity_of(e) for e in cell.members.values()}
            if len(tags) > 1:
                offenders.append(cid)
        return offenders

    def detect_waiting_cycles(self) -> List[List[CellId]]:
        """Cycles in the waits-on graph (potential gridlock).

        Cell ``c`` waits on ``n`` when ``c`` is nonempty, wants to
        move into ``n``, and ``n`` is nonempty too. A cycle of such
        edges can never drain — the head-to-head deadlock documented
        in ``docs/multiflow.md``. Returns each cycle once.
        """
        waits_on: Dict[CellId, CellId] = {}
        for cid, cell in self.cells.items():
            if cell.failed or not cell.members:
                continue
            nxt = self._moving_direction(cid)
            if nxt is None:
                continue
            nstate = self.cells[nxt]
            if not nstate.failed and nstate.members:
                waits_on[cid] = nxt
        cycles: List[List[CellId]] = []
        visited: Set[CellId] = set()
        for start in sorted(waits_on):
            if start in visited:
                continue
            trail: List[CellId] = []
            seen_at: Dict[CellId, int] = {}
            cursor: Optional[CellId] = start
            while (
                cursor is not None
                and cursor in waits_on
                and cursor not in visited
            ):
                seen_at[cursor] = len(trail)
                trail.append(cursor)
                cursor = waits_on[cursor]
                if cursor in seen_at:
                    cycles.append(trail[seen_at[cursor] :])
                    break
            visited.update(trail)
        return cycles

