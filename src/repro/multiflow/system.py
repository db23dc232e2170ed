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
``nexts`` dict extensions of :class:`MultiCommodityCellState`.

Known limitation, documented in ``docs/multiflow.md``: commodities
forced head-to-head through shared corridors can gridlock;
:meth:`MultiCommoditySystem.detect_waiting_cycles` detects the
condition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.cell import (
    DIST_SENTINEL,
    INFINITY,
    CellState,
    dist_from_int,
    dist_to_int,
)
from repro.core.entity import Entity
from repro.core.move import MovePhaseReport, Transfer, crossed_boundary
from repro.core.params import Parameters
from repro.core.policies import RoundRobinTokenPolicy, TokenPolicy
from repro.core.route import RoutePhaseReport
from repro.core.signal import SignalPhaseReport, gap_clear
from repro.core.system import RoundReport
from repro.geometry.point import Point
from repro.geometry.separation import fits_among
from repro.grid.topology import CellId, Direction, Grid, direction_between
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

    Drop-in compatible with the simulator surface of the single-flow
    ``System``: ``update() -> RoundReport``, ``fail`` / ``recover``,
    ``phase_observer`` / ``cell_observer`` hooks, scalar
    ``total_produced`` / ``total_consumed``, plus the per-commodity
    ``produced_by_commodity`` / ``consumed_by_commodity`` ledgers the
    conservation oracle audits.
    """

    #: Marks the system for engine dispatch and the differential
    #: harness's canonical-state extension.
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
        route_report = self._route_phase()
        self._notify_phase("route")
        signal_report = self._signal_phase()
        self._notify_phase("signal")
        move_report = self._move_phase()
        self._notify_phase("move")
        self.total_consumed += len(move_report.consumed)
        produced = self._produce()
        self._notify_phase("produce")
        report = RoundReport(
            round_index=self.round_index,
            route=route_report,
            signal=signal_report,
            move=move_report,
            produced=produced,
        )
        self.round_index += 1
        return report

    def run(self, rounds: int) -> List[RoundReport]:
        """Run ``rounds`` consecutive updates (no faults)."""
        return [self.update() for _ in range(rounds)]

    # -- Route ---------------------------------------------------------

    def _route_phase(self) -> RoutePhaseReport:
        changed_dist: Set[CellId] = set()
        changed_next: Set[CellId] = set()
        for index, commodity in enumerate(self.table):
            name = commodity.name
            snapshot = {
                cid: (INFINITY if cell.failed else cell.dists[name])
                for cid, cell in self.cells.items()
            }
            for cid, cell in self.cells.items():
                if cell.failed or cid == commodity.target:
                    continue
                new_dist, new_next = self._route_step(
                    index, cid, snapshot.__getitem__
                )
                if new_dist != cell.dists[name]:
                    cell.dists[name] = new_dist
                    changed_dist.add(cid)
                if new_next != cell.nexts[name]:
                    cell.nexts[name] = new_next
                    changed_next.add(cid)
        return RoutePhaseReport(
            changed_dist=sorted(changed_dist, key=_row_major),
            changed_next=sorted(changed_next, key=_row_major),
        )

    def _route_step(
        self,
        commodity_index: int,
        cid: CellId,
        dist_of: Callable[[CellId], float],
    ) -> Tuple[float, Optional[CellId]]:
        """One relaxation with the ``(dist, commodity, cell)`` tie-break.

        Distances use the exact integral embedding (``dist_to_int``) so
        the minimum and the tie set are computed without float ``==``.
        """
        neighbors = sorted(self.grid.neighbors(cid))
        ints = [dist_to_int(dist_of(n)) for n in neighbors]
        best = min(ints)
        if best >= DIST_SENTINEL:
            return INFINITY, None
        ties = [n for n, d in zip(neighbors, ints) if d == best]
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

    def _signal_phase(self) -> SignalPhaseReport:
        report = SignalPhaseReport()
        ne_prev_map: Dict[CellId, Set[CellId]] = {}
        for cid, cell in self.cells.items():
            if cell.failed:
                continue
            inbound: Set[CellId] = set()
            for nbr in self.grid.neighbors(cid):
                nstate = self.cells[nbr]
                if nstate.failed or not nstate.members:
                    continue
                if self._moving_direction(nbr) == cid:
                    inbound.add(nbr)
            ne_prev_map[cid] = inbound
        for cid, ne_prev in ne_prev_map.items():
            cell = self.cells[cid]
            cell.ne_prev = ne_prev
            if cell.token is not None and cell.token not in ne_prev:
                cell.token = None
            if cell.token is None:
                cell.token = self.token_policy.initial(ne_prev)
            if cell.token is None:
                cell.signal = None
                continue
            reason = self._grant_block_reason(cid, cell, cell.token)
            if reason is None:
                cell.signal = cell.token
                report.granted[cid] = cell.token
                cell.token = self.token_policy.rotate(ne_prev, cell.token)
                if cell.token != cell.signal:
                    report.rotated.append((cid, cell.signal, cell.token))
            else:
                cell.signal = None
                report.blocked.append(cid)
                report.block_reasons[cid] = reason
        return report

    def _grant_block_reason(
        self, cid: CellId, cell: MultiCommodityCellState, holder_id: CellId
    ) -> Optional[str]:
        """Why the token holder cannot be granted, or None to grant.

        Residency is checked before the gap so a type-exclusion block
        is reported as ``"residency"`` even when the strip is also
        occupied (which it is, by the resident entities).
        """
        holder = self.cells[holder_id]
        resident = cell.resident_commodity
        incoming = holder.resident_commodity
        compatible = (
            resident is None
            or resident == incoming
            or self.table.by_name(incoming).target == cid
        )
        if not compatible:
            return "residency"
        toward = direction_between(cid, holder_id)
        if not gap_clear(cell, toward, self.params):
            return "gap"
        return None

    # -- Move ----------------------------------------------------------

    def _move_phase(self) -> MovePhaseReport:
        report = MovePhaseReport()
        movers: List[Tuple[CellId, CellId]] = []
        for cid, cell in self.cells.items():
            if cell.failed or not cell.members:
                continue
            nxt = self._moving_direction(cid)
            if nxt is None:
                continue
            nstate = self.cells[nxt]
            if not nstate.failed and nstate.signal == cid:
                movers.append((cid, nxt))
        half_l = self.params.half_l
        pending: List[Tuple[Entity, CellId, CellId, Direction]] = []
        for cid, nxt in movers:
            report.moved_cells.append(cid)
            direction = direction_between(cid, nxt)
            for entity in self.cells[cid].entities():
                entity.translate(direction, self.params.v)
                if crossed_boundary(entity, cid, direction, half_l):
                    pending.append((entity, cid, nxt, direction))
        for entity, src, dst, direction in pending:
            self.cells[src].remove_entity(entity.uid)
            name = commodity_of(entity)
            if self.table.by_name(name).target == dst:
                report.consumed.append(entity)
                self.consumed_by_commodity[name] += 1
                report.transfers.append(
                    Transfer(uid=entity.uid, src=src, dst=dst, consumed=True)
                )
            else:
                entity.snap_to_entry_edge(dst, direction, half_l)
                self.cells[dst].add_entity(entity)
                report.transfers.append(
                    Transfer(uid=entity.uid, src=src, dst=dst, consumed=False)
                )
        return report

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
                candidate = self._entry_point(cid, nxt)
                centers = [e.center for e in cell.members.values()]
                if not fits_among(candidate, centers, self.params.d):
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

    def _entry_point(self, cid: CellId, nxt: CellId) -> Point:
        """Lane-centered insertion point on the wall opposite the exit."""
        i, j = cid
        half = self.params.half_l
        exit_dir = direction_between(cid, nxt)
        if exit_dir is Direction.EAST:
            return Point(i + half, j + 0.5)
        if exit_dir is Direction.WEST:
            return Point(i + 1 - half, j + 0.5)
        if exit_dir is Direction.NORTH:
            return Point(i + 0.5, j + half)
        return Point(i + 0.5, j + 1 - half)

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


def _row_major(cid: CellId) -> Tuple[int, int]:
    """Row-major sort key ``(j, i)``, matching the grid sweep order."""
    return (cid[1], cid[0])
