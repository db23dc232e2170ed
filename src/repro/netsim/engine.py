"""The ``timed`` round engine: the protocol over messages with latency.

The paper assumes "messages are delivered within bounded time" and
builds its synchronous round on top. This engine realizes that round
with messages: all cells share synchronized clocks and *turn* once per
period, and one paper round is four turns:

====  ==========================================================
turn  action (consume what arrived, compute, send)
====  ==========================================================
A     send RouteAdverts
B     consume RouteAdverts -> Route; send OccupancyAdverts
C     consume OccupancyAdverts -> Signal; send GrantAdverts
D     consume GrantAdverts -> Move; send EntityTransferMessages
====  ==========================================================

At the next round's turn-A instant the transfers land, the target
consumes its arrivals, and the sources produce. The engine runs on the
``System`` itself: each :class:`~repro.netsim.process.CellProcess` works
on the System's own ``CellState``, the target is ``system.tid`` as of
the round, production is ``system._produce()`` (the System's sources,
RNG and uid counter), and the four phase notifications fire like on the
synchronous engines, so the monitors check predicate H and Lemma 4.

**Delivery rule.** Each message's latency is drawn from a
:class:`~repro.netsim.delay.DelayModel` (in periods) when it is sent,
in send order, transfers included. An advert that would arrive after
the next turn is stale: it is counted in :attr:`TimedEngine.late_adverts`
and dropped, and its absence reads conservatively (silence is
``dist = infinity``, no ``NEPrev`` entry, no grant), so safety holds
and only throughput suffers. Advert loss is the same thing with an
infinite delay (:class:`~repro.netsim.delay.LossyDelay`). Entity
transfers are physical hand-offs and always land. Inboxes are keyed by
(receiver, turn sent) and read in ``(src, type name)`` order; each turn
sends one message type, so that is sender order. When every latency is
at most one period the execution is state-identical to the synchronous
reference, round by round — the ``async-equivalence`` fuzz oracle
checks exactly that.

Two consequences of deciding delivery at send time: a late advert is
counted in the round it was sent, and several transfers from one cell
to the same neighbor in one round arrive in send order rather than in
jittered arrival order (the receiver's state is the same either way).

The report is the synchronous engines' report. Each process appends
its Route changes and its Signal decisions as it computes them, in cell
order, which is the reference sweep's order. Move lists the moved cells
in cell order and the transfers and consumptions in send order, which
is the movers' sweep order, as ``apply_moves`` lists them.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core.move import MovePhaseReport, Transfer
from repro.core.route import RoutePhaseReport
from repro.core.signal import SignalPhaseReport
from repro.core.system import System
from repro.grid.topology import CellId
from repro.netsim.delay import DelayModel, FixedDelay, UniformDelay
from repro.netsim.message import EntityTransferMessage, Message
from repro.netsim.process import CellProcess
from repro.sim.engine import RoundEngine
from repro.sim.seeding import derive_rng

_sender = attrgetter("src")


class TimedEngine(RoundEngine):
    """Run each round as four timed turns of per-cell message passing.

    ``delay_model`` defaults from the config: ``Uniform(0, jitter)``
    periods when ``config.jitter > 0``, else a fixed half period.
    ``delay_rng`` defaults to ``derive_rng(config.seed, "delay")``.
    """

    name = "timed"

    def __init__(
        self,
        system: System,
        config=None,
        delay_model: Optional[DelayModel] = None,
        delay_rng: Optional[random.Random] = None,
    ):
        super().__init__(system, config)
        if delay_model is None:
            jitter = float(getattr(config, "jitter", 0.0) or 0.0)
            delay_model = (
                UniformDelay(0.0, jitter) if jitter > 0.0 else FixedDelay(0.5)
            )
        if delay_rng is None:
            delay_rng = derive_rng(int(getattr(config, "seed", 0) or 0), "delay")
        self.delay_model = delay_model
        self.delay_rng = delay_rng
        self.processes: Dict[CellId, CellProcess] = {
            cid: CellProcess(state, system.grid, system.params, system.token_policy)
            for cid, state in system.cells.items()
        }
        #: Messages sent so far, by type name (the protocol's wire cost).
        self.sent_by_type: Dict[str, int] = {}
        #: Adverts dropped because they would miss their turn (late or lost).
        self.late_adverts = 0
        self._inboxes: Dict[Tuple[CellId, int], List[Message]] = {}
        self._turn = 0
        self._turn_start = 0.0
        self._deadline = 0.0

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _open_turn(self, k: int) -> int:
        """Open this round's turn ``k`` (0-3, A-D) and return its number:
        messages sent from now on leave at that turn and are read at the
        next (times in periods since round 0)."""
        turn = 4 * self.system.round_index + k
        self._turn = turn
        self._turn_start = float(turn)
        self._deadline = float(turn + 1) + 1e-12
        return turn

    def _send(self, message: Message) -> None:
        name = type(message).__name__
        self.sent_by_type[name] = self.sent_by_type.get(name, 0) + 1
        delay = self.delay_model.sample(message, self.delay_rng)
        if (
            not isinstance(message, EntityTransferMessage)
            and self._turn_start + delay > self._deadline
        ):
            self.late_adverts += 1
            return
        self._inboxes.setdefault((message.dst, self._turn), []).append(message)

    def _take(self, cid: CellId, turn: int) -> List[Message]:
        """Pop what ``cid`` received from ``turn``, in sender order."""
        inbox = self._inboxes.pop((cid, turn), None)
        if inbox is None:
            return []
        inbox.sort(key=_sender)
        return inbox

    # ------------------------------------------------------------------
    # The phases (assembled by RoundEngine.step): each sends, then reads
    # ------------------------------------------------------------------

    def _route_phase(self) -> RoutePhaseReport:
        """Turn A: dist adverts. Turn B: Route."""
        turn = self._open_turn(0)
        for process in self.processes.values():
            process.advert_route(self._send)
        route = RoutePhaseReport()
        for cid, process in self.processes.items():
            process.on_route(self._take(cid, turn), cid == self.system.tid, route)
        return route

    def _signal_phase(self, route_report: RoutePhaseReport) -> SignalPhaseReport:
        """Next/occupancy adverts, then turn C: Signal."""
        turn = self._open_turn(1)
        for process in self.processes.values():
            process.advert_occupancy(self._send)
        signal = SignalPhaseReport()
        for cid, process in self.processes.items():
            process.on_occupancy(self._take(cid, turn), signal)
        return signal

    def _move_phase(self, signal_report: SignalPhaseReport) -> MovePhaseReport:
        """Grant adverts, then turn D: Move and entity transfers, which
        land at the next round's turn-A instant (before production)."""
        processes = self.processes
        send = self._send
        tid = self.system.tid
        turn = self._open_turn(2)
        for process in processes.values():
            process.advert_grant(send)
        self._open_turn(3)
        move = MovePhaseReport()
        sent: List[EntityTransferMessage] = []

        def send_transfer(message: EntityTransferMessage) -> None:
            sent.append(message)
            send(message)

        for cid, process in processes.items():
            if process.on_grant(self._take(cid, turn), send_transfer):
                move.moved_cells.append(cid)

        # A cell grants one neighbor a round, so the target's inbox is
        # already in send order.
        for cid, process in processes.items():
            inbox = self._take(cid, turn + 1)
            if inbox:
                move.consumed.extend(process.on_transfers(inbox, cid == tid))
        move.transfers = [
            Transfer(uid=m.uid, src=m.src, dst=m.dst, consumed=m.dst == tid)
            for m in sent
        ]
        return move
