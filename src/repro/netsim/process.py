"""The per-cell process of the message-passing implementation.

A :class:`CellProcess` runs one cell's protocol over the cell's own
:class:`~repro.core.cell.CellState` — the very object the ``System``
holds, so ``System.fail`` / ``recover`` / ``seed_entity`` are the only
environment transitions and the monitors read one truth. Each paper
round it sends at one turn and computes from what arrived at the next:

    advert_route     -> on_route       (Route,  from received dists)
    advert_occupancy -> on_occupancy   (Signal, from received next/occupancy)
    advert_grant     -> on_grant       (Move,   from the received grant)
                        on_transfers   (accept entities handed over)

Every inbox holds the messages of one turn, so it carries one message
type. Route and Signal call the shared-variable model's own per-cell
steps (``_route_step``, ``_signal_step``) on what arrived, and record
their changes and decisions in the round's phase reports exactly as the
synchronous sweeps do — so any divergence between the two models is a
protocol bug, not a re-coding artifact, and the lockstep tests would
catch it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.core.cell import DIST_SENTINEL, INFINITY, CellState, dist_to_int
from repro.core.entity import Entity
from repro.core.move import crossed_boundary
from repro.core.params import Parameters
from repro.core.policies import TokenPolicy
from repro.core.route import RoutePhaseReport, _route_step
from repro.core.signal import SignalPhaseReport, _signal_step
from repro.grid.topology import CellId, Grid, direction_between
from repro.netsim.message import (
    EntityTransferMessage,
    GrantAdvert,
    Message,
    OccupancyAdvert,
    RouteAdvert,
)

#: How a process hands a message to the network.
Send = Callable[[Message], None]


class CellProcess:
    """One cell's protocol logic over messages."""

    def __init__(
        self,
        state: CellState,
        grid: Grid,
        params: Parameters,
        token_policy: TokenPolicy,
    ):
        self.state = state
        self.grid = grid
        self.params = params
        self.token_policy = token_policy

    @property
    def cell_id(self) -> CellId:
        return self.state.cell_id

    @property
    def failed(self) -> bool:
        return self.state.failed

    # ------------------------------------------------------------------
    # Route
    # ------------------------------------------------------------------

    def advert_route(self, send: Send) -> None:
        """Broadcast the current dist estimate (None encodes infinity)."""
        if self.failed:
            return
        cid = self.cell_id
        dist = None if self.state.dist == INFINITY else self.state.dist
        for dst in self.grid.neighbors(cid):
            send(RouteAdvert(src=cid, dst=dst, dist=dist))

    def on_route(
        self,
        inbox: Iterable[RouteAdvert],
        is_target: bool,
        report: Optional[RoutePhaseReport] = None,
    ) -> None:
        """Route from received dists (silence = infinity); the target
        keeps ``dist = 0``. Changes are appended to ``report``."""
        if self.failed or is_target:
            return
        cid = self.cell_id
        # Missing adverts read as infinity — silence is failure. Each
        # received dist is converted to the integer view as it is read.
        dists: Dict[CellId, int] = dict.fromkeys(
            self.grid.neighbors_by_id(cid), DIST_SENTINEL
        )
        for message in inbox:
            dists[message.src] = (
                DIST_SENTINEL if message.dist is None else dist_to_int(message.dist)
            )
        new_dist, new_next = _route_step(self.grid, cid, dists)
        if report is None:
            report = RoutePhaseReport()
        state = self.state
        if new_dist != state.dist:
            report.changed_dist.append(cid)
            state.dist = new_dist
        if new_next != state.next_id:
            report.changed_next.append(cid)
            state.next_id = new_next

    # ------------------------------------------------------------------
    # Signal
    # ------------------------------------------------------------------

    def advert_occupancy(self, send: Send) -> None:
        """Broadcast the next pointer and the occupancy flag."""
        if self.failed:
            return
        cid = self.cell_id
        next_id = self.state.next_id
        nonempty = bool(self.state.members)
        for dst in self.grid.neighbors(cid):
            send(OccupancyAdvert(src=cid, dst=dst, next_id=next_id, nonempty=nonempty))

    def on_occupancy(
        self,
        inbox: Iterable[OccupancyAdvert],
        report: Optional[SignalPhaseReport] = None,
    ) -> None:
        """NEPrev, token maintenance, and the grant; decisions are
        appended to ``report``."""
        if self.failed:
            return
        ne_prev = {
            message.src
            for message in inbox
            if message.next_id == self.cell_id and message.nonempty
        }
        if report is None:
            report = SignalPhaseReport()
        _signal_step(self.state, ne_prev, self.params, self.token_policy, report)

    # ------------------------------------------------------------------
    # Move + transfers
    # ------------------------------------------------------------------

    def advert_grant(self, send: Send) -> None:
        """Broadcast the signal (grant) value."""
        if self.failed:
            return
        cid = self.cell_id
        signal = self.state.signal
        for dst in self.grid.neighbors(cid):
            send(GrantAdvert(src=cid, dst=dst, signal=signal))

    def on_grant(self, inbox: Iterable[GrantAdvert], send: Send) -> bool:
        """Apply Move if the next-hop's grant names this cell.

        Crossing entities leave the local membership immediately and ride
        an :class:`EntityTransferMessage`; returns True when the cell
        moved this round.
        """
        if self.failed or self.state.next_id is None or not self.state.members:
            return False
        nxt = self.state.next_id
        if not any(
            message.src == nxt and message.signal == self.cell_id
            for message in inbox
        ):
            return False
        toward = direction_between(self.cell_id, nxt)
        for entity in self.state.entities():
            entity.translate(toward, self.params.v)
            if crossed_boundary(entity, self.cell_id, toward, self.params.half_l):
                self.state.remove_entity(entity.uid)
                send(
                    EntityTransferMessage(
                        src=self.cell_id,
                        dst=nxt,
                        uid=entity.uid,
                        position=(entity.x, entity.y),
                        birth_round=entity.birth_round,
                    )
                )
        return True

    def on_transfers(
        self, inbox: Iterable[EntityTransferMessage], is_target: bool
    ) -> List[Entity]:
        """Accept handed-over entities; the target consumes them.

        Returns the entities consumed (empty for non-targets). The
        protocol never sends to a crashed cell (no grant, no movement
        toward it), so a transfer into one raises.
        """
        consumed: List[Entity] = []
        for message in inbox:
            if self.failed:
                raise AssertionError(
                    f"entity {message.uid} was transferred into crashed cell "
                    f"{self.cell_id} — protocol violation"
                )
            entity = Entity(
                uid=message.uid,
                x=message.position[0],
                y=message.position[1],
                birth_round=message.birth_round,
                side=self.params.l,
            )
            if is_target:
                consumed.append(entity)
                continue
            toward = direction_between(message.src, self.cell_id)
            entity.snap_to_entry_edge(self.cell_id, toward, self.params.half_l)
            self.state.add_entity(entity)
        return consumed
