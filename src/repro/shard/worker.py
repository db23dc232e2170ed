"""Shard worker: one contiguous district of the grid in its own process.

The worker holds the :class:`~repro.core.cell.CellState` of its district
cells (entities included) and runs the core Route and Signal loops
(:func:`~repro.core.route.route_cells`,
:func:`~repro.core.signal.signal_cells`) over them — the loops of the
reference and incremental engines. It reads each out-of-district
neighbor through a :class:`RimCell`, refreshed from the *ghost* values
the coordinator sends (effective ``dist`` with a route request;
effective ``next``/nonemptiness with a signal request, only for the
rim cells where it changed). Move is
computed by the coordinator from the merged grant report; the worker
replays its district's slice of the outcome (translations, boundary
transfers, produced entities), using the same IEEE float operations,
so its mirror stays bitwise identical to the coordinator's
authoritative state.

Each request may carry the worker's queue at its head: the last
round's slice, then fail/recover/relocate events with the live ``tid``,
then membership resyncs (``member_sync``). The worker applies them
first, in that order, whatever the request's kind.

A worker evaluates only its district's *dirty* cells: it keeps the
incremental engine's per-phase dirty sets (:mod:`repro.core.dirty`,
restricted to the district) and feeds every change it sees into the
same rules — its own Route results, fail/recover/relocate events
(the fault rule, as in the incremental engine), membership changes
from slices and ``member_sync``, and ghosts that differ from what its
rim cells held before. Route replies list only the cells whose
``dist`` or ``next`` changed; Signal replies list the evaluated cells.
Every reply says whether the Route-dirty set is empty
(``route_quiet``): the coordinator sends no route request to a quiet
district whose queue holds no event and whose rim dists are unchanged,
since it would evaluate no cell.

When a shard dies the coordinator finishes the round with
``System.route_cells`` / ``signal_cells`` over its authoritative state:
the same loops, which is why a death round is state-identical to a run
without the death (docs/sharding.md).

Process protocol (``python -m repro.shard._worker_main <fd>``): a pickle-framed
request loop over an inherited socketpair fd. Every request carries a
``seq``; the worker caches its last reply and answers a retransmitted
``seq`` from the cache without recomputing. An ``init`` request delivers
the district snapshot; ``route``/``signal`` drive the round phases;
``audit`` returns a canonical digest (tests); EOF means the
coordinator is gone and the worker exits. Keep this module's import
graph lean (``repro.core`` + grid only): worker startup cost is paid on
every (re)spawn.
"""

from __future__ import annotations

import os
import signal as _signal
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cell import INFINITY, CellState, dist_to_int
from repro.core.dirty import DirtyCells, LiveDistView, row_major
from repro.core.entity import Entity
from repro.core.params import Parameters
from repro.core.route import route_cells
from repro.core.signal import signal_cells
from repro.core.policies import TokenPolicy
from repro.grid.topology import CellId, Direction, Grid

# ---------------------------------------------------------------------------
# Wire helpers
# ---------------------------------------------------------------------------


def entity_to_wire(entity: Entity) -> Tuple[int, float, float, int, float]:
    """Flatten an entity to the picklable boundary-message tuple."""
    return (entity.uid, entity.x, entity.y, entity.birth_round, entity.side)


def entity_from_wire(wire: Sequence) -> Entity:
    """Rebuild an entity from its wire tuple (inverse of entity_to_wire)."""
    uid, x, y, birth_round, side = wire
    return Entity(uid=uid, x=x, y=y, birth_round=birth_round, side=side)


# ---------------------------------------------------------------------------
# Replaying the coordinator's changes on the district mirror
# ---------------------------------------------------------------------------


def apply_events(
    cells: Dict[CellId, CellState],
    tid: CellId,
    events: Sequence[Tuple[str, CellId]],
) -> None:
    """Replay fail/recover/relocate environment transitions on district
    cells; ``tid`` is the live target after all of them. A ``relocate``
    replays ``System.relocate_target`` on the old or the new target."""
    for event, cid in events:
        state = cells[cid]
        if event == "fail":
            state.mark_failed()
        elif event == "recover":
            state.mark_recovered(is_target=(cid == tid))
        elif event == "relocate":
            state.mark_retargeted(is_target=(cid == tid))


def apply_member_sync(
    cells: Dict[CellId, CellState],
    member_sync: Dict[CellId, Sequence[Sequence]],
) -> None:
    """Replace listed cells' membership with the authoritative snapshot
    (covers out-of-round entity seeding, which ships no per-entity
    deltas)."""
    for cid, wires in member_sync.items():
        cells[cid].members = {
            wire[0]: entity_from_wire(wire) for wire in wires
        }


def district_digest(
    cells: Dict[CellId, CellState], district: Sequence[CellId]
) -> List[Tuple]:
    """Canonical per-cell tuple list (the audit reply; tests compare it
    against the coordinator's authoritative state)."""
    digest = []
    for cid in district:
        state = cells[cid]
        digest.append(
            (
                cid,
                tuple(entity_to_wire(state.members[uid]) for uid in sorted(state.members)),
                state.next_id,
                dist_to_int(state.dist),
                state.token,
                state.signal,
                tuple(sorted(state.ne_prev)),
                state.failed,
            )
        )
    return digest


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


class RimCell:
    """An out-of-district neighbor as the district's loops read it.

    Holds what the coordinator's ghosts carry: the neighbor's effective
    ``dist`` (refreshed before Route) and its effective ``next`` and
    nonemptiness (refreshed before Signal when they changed). A failed
    neighbor arrives masked (``dist = inf``, ``next = bot``, empty), so a
    rim cell is never failed; ``members`` is the nonemptiness flag, which
    is all :func:`~repro.core.signal.compute_ne_prev` reads of it.
    """

    __slots__ = ("cell_id", "dist", "next_id", "members")
    failed = False

    def __init__(self, cell_id: CellId):
        self.cell_id = cell_id
        self.dist = INFINITY
        self.next_id: Optional[CellId] = None
        self.members = False


class DistrictWorker(DirtyCells):
    """Request handler around one district's state and dirty sets.

    Usable in-process (tests drive it directly) or behind the pickle
    loop of :func:`serve`. ``cells`` holds the district's cells and one
    :class:`RimCell` per out-of-district neighbor, so the core Route and
    Signal loops read the rim as they read the district. A new worker
    starts with every district cell dirty, so its first round is a full
    sweep.
    """

    def __init__(self, init: Dict[str, Any]):
        self.grid = Grid(init["width"], init["height"])
        self.tid: CellId = init["tid"]
        self.params: Parameters = init["params"]
        self.policy: TokenPolicy = init["policy"]
        self.district: List[CellId] = list(init["district"])
        self.cells: Dict[CellId, Union[CellState, RimCell]] = init["cells"]
        self.chaos: Optional[Dict[str, Any]] = init.get("chaos")
        self._track(self.grid, self.district)
        for cid in self.district:
            for nbr in self.grid.neighbors(cid):
                if nbr not in self.cells:
                    self.cells[nbr] = RimCell(nbr)

    # -- chaos hooks (tests only) --------------------------------------

    def chaos_action(
        self, kind: str, payload: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The matched chaos spec to apply to this request, if any."""
        spec = self.chaos
        if not spec or spec.get("phase") != kind:
            return None
        round_index = payload.get("round")
        if round_index is None:
            return None
        if spec.get("repeat"):
            if round_index < spec["round"]:
                return None
        elif round_index != spec["round"]:
            return None
        if not spec.get("repeat"):
            self.chaos = None  # one-shot
        return spec

    # -- out-of-district changes ---------------------------------------

    def _note_route_ghosts(self, ghosts: Dict[CellId, float]) -> None:
        """A rim cell whose dist differs from last round's wakes its
        district neighbors' Route (the dist rule across the rim)."""
        cells = self.cells
        for cid, dist in ghosts.items():
            if cells[cid].dist != dist:
                self._mark_dist_change(cid)

    def _note_signal_ghosts(self, ghosts: Dict[CellId, Tuple]) -> None:
        """A rim cell whose ``(next, nonempty)`` differs from last round's
        wakes its district neighbors' Signal: a changed ``next`` and a
        changed membership both reach them only through ``NEPrev``."""
        cells = self.cells
        for cid, (next_id, nonempty) in ghosts.items():
            rim = cells[cid]
            if rim.next_id != next_id or rim.members != nonempty:
                self._mark_next_change(cid)

    def _refresh_rim_dists(self, ghosts: Dict[CellId, float]) -> None:
        """The rim cells take this round's pre-Route dists."""
        cells = self.cells
        for cid, dist in ghosts.items():
            cells[cid].dist = dist

    def _refresh_rim_signal(self, ghosts: Dict[CellId, Tuple]) -> None:
        """The rim cells named take this round's post-Route ``(next,
        nonempty)``; the others hold theirs."""
        cells = self.cells
        for cid, (next_id, nonempty) in ghosts.items():
            rim = cells[cid]
            rim.next_id = next_id
            rim.members = nonempty

    def _apply_member_sync(self, member_sync: Dict[CellId, Sequence[Sequence]]) -> None:
        apply_member_sync(self.cells, member_sync)
        for cid in member_sync:
            self._mark_membership_change(cid)

    def _apply_slice(
        self,
        movers: Sequence[Tuple[CellId, Direction, Sequence[int]]],
        incoming: Sequence[Tuple[CellId, Sequence]],
        produced: Sequence[Tuple[CellId, Sequence]],
    ) -> None:
        """Replay the district slice of one Move + produce outcome.

        ``movers`` lists district cells that moved, with the removed
        (transferred or consumed) uids; translations reuse
        ``Entity.translate`` so every float op matches ``apply_moves``
        bitwise. ``incoming`` entities arrive with their post-snap
        coordinates — the snap is never recomputed here.
        """
        cells, v = self.cells, self.params.v
        for cid, toward, removed in movers:
            state = cells[cid]
            for entity in state.entities():
                entity.translate(toward, v)
            for uid in removed:
                state.members.pop(uid, None)
            if removed:
                self._mark_membership_change(cid)
        for dst, wire in (*incoming, *produced):
            cells[dst].add_entity(entity_from_wire(wire))
            self._mark_membership_change(dst)

    def _apply_queue(self, payload: Dict[str, Any]) -> None:
        """The queue at a request's head, in order: the last round's
        slice, the fail/recover/relocate events, the membership resyncs."""
        if "slice" in payload:
            self._apply_slice(*payload["slice"])
        events = payload.get("events")
        if events:
            self.tid = payload["tid"]
            apply_events(self.cells, self.tid, events)
            for _, cid in events:
                self._mark_fault_event(cid)
        if "member_sync" in payload:
            self._apply_member_sync(payload["member_sync"])

    def _route_quiet(self) -> bool:
        """No district cell is dirty for Route: a route request now
        would evaluate nothing unless an event or a rim dist wakes one."""
        return not self._route_dirty

    # -- request handlers ----------------------------------------------

    def handle(self, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Apply the request's queue, then dispatch it to its handler."""
        self._apply_queue(payload)
        if kind == "route":
            reply = self._handle_route(payload)
        elif kind == "signal":
            reply = self._handle_signal(payload)
        elif kind == "audit":
            reply = {"digest": district_digest(self.cells, self.district)}
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        reply["route_quiet"] = self._route_quiet()
        return reply

    def _handle_route(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.tid = payload["tid"]
        ghosts = payload["ghosts"]
        self._note_route_ghosts(ghosts)
        self._refresh_rim_dists(ghosts)
        cells = self.cells
        report = route_cells(
            self.grid, cells, self.tid, self._take_route_dirty(), LiveDistView(cells)
        )
        for cid in report.changed_dist:
            self._mark_dist_change(cid)
        for cid in report.changed_next:
            self._mark_next_change(cid)
        changed = sorted({*report.changed_dist, *report.changed_next}, key=row_major)
        return {
            "updates": [
                (cid, dist_to_int(cells[cid].dist), cells[cid].next_id)
                for cid in changed
            ]
        }

    def _handle_signal(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        ghosts: Dict[CellId, Tuple] = payload["ghosts"]
        self._note_signal_ghosts(ghosts)
        self._refresh_rim_signal(ghosts)
        cells = self.cells
        pending = self._take_signal_pending()
        report = signal_cells(self.grid, cells, self.params, self.policy, pending)
        updates = []
        for cid in pending:
            state = cells[cid]
            if not state.failed:
                self._keep_hot(cid, state.ne_prev)
                updates.append(
                    (cid, tuple(sorted(state.ne_prev)), state.token, state.signal)
                )
        return {
            "updates": updates,
            "granted": list(report.granted.items()),
            "blocked": report.blocked,
            "rotated": report.rotated,
        }


def serve(conn, sleep: Callable[[float], None] = time.sleep) -> None:
    """The worker request loop: recv, dispatch, reply, until EOF.

    Retransmits (same ``seq`` as the last handled request) are answered
    from the cached reply without recomputing. Chaos actions (injected
    through the init payload by the chaos tests) fire here: ``kill`` and
    ``hang`` before the phase runs (mid-round death), ``drop`` and
    ``tear`` suppress/garble the reply after computing it — the cached
    reply then satisfies the coordinator's retransmit.
    """
    worker: Optional[DistrictWorker] = None
    last_seq: Optional[int] = None
    last_reply: Optional[Dict[str, Any]] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if not isinstance(message, dict) or "seq" not in message:
            continue
        seq = message["seq"]
        kind = message.get("kind")
        payload = message.get("payload") or {}
        if seq == last_seq and last_reply is not None:
            try:
                conn.send(last_reply)
            except (BrokenPipeError, OSError):
                return
            continue
        spec = worker.chaos_action(kind, payload) if worker is not None else None
        action = spec["action"] if spec else None
        if action == "kill":
            os.kill(os.getpid(), _signal.SIGKILL)
        if action == "hang":
            sleep(spec.get("hang_seconds", 60.0))
            action = None  # a hang past the heartbeat: the coordinator
            # will have given up; compute and reply normally so a *short*
            # hang inside the timeout budget is also survivable.
        if kind == "init":
            worker = DistrictWorker(payload)
            result: Dict[str, Any] = {"ok": True, "cells": len(worker.district)}
        elif kind == "shutdown":
            return
        elif worker is None:
            result = {"error": "not initialized"}
        else:
            result = worker.handle(kind, payload)
        reply = {"seq": seq, "payload": result}
        last_seq, last_reply = seq, reply
        try:
            if action == "drop":
                pass  # computed and cached, never sent: forces a retransmit
            elif action == "tear":
                conn.send({"torn": True})  # garbled frame, no seq
            else:
                conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def main(argv: List[str]) -> int:
    """Process entry: adopt the inherited socket fd and serve until EOF."""
    from multiprocessing.connection import Connection

    if len(argv) != 2:
        print("usage: python -m repro.shard._worker_main <fd>", file=sys.stderr)
        return 2
    conn = Connection(int(argv[1]))
    try:
        serve(conn)
    finally:
        try:
            conn.close()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
