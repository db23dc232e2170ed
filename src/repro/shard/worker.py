"""Shard worker: one contiguous district of the grid in its own process.

The worker holds the :class:`~repro.core.cell.CellState` of its district
cells (entities included) and executes the heavy per-cell sweeps — Route
and Signal — over them each round, reading out-of-district neighbors
through per-round *ghost* values the coordinator sends (effective
``dist`` for Route; effective ``next``/nonemptiness for Signal). Move is
computed by the coordinator from the merged grant report; the worker
replays its district's slice of the outcome (translations, boundary
transfers, produced entities) from the commit message, using the same
IEEE float operations, so its mirror stays bitwise identical to the
coordinator's authoritative state.

A worker evaluates only its district's *dirty* cells: it keeps the
incremental engine's per-phase dirty sets (:mod:`repro.core.dirty`,
restricted to the district) and feeds every change it sees into the
same rules — its own Route results, fail/recover/relocate events
(the fault rule, as in the incremental engine), membership changes
from commits and ``member_sync``, and rim ghosts that differ from the
previous round's. Route replies list only the cells whose
``dist`` or ``next`` changed; Signal replies list the evaluated cells.

The district computations live here as **pure module functions**
(:func:`compute_route_updates`, :func:`compute_signal_updates`,
:func:`apply_route_updates`, :func:`apply_commit`) shared by the worker
*and* the coordinator's local-fallback path: when a shard dies mid-round
the coordinator finishes the round by running exactly these functions
over its authoritative state, which is why a death round is
state-identical to a run without the death (docs/sharding.md).

Process protocol (``python -m repro.shard._worker_main <fd>``): a pickle-framed
request loop over an inherited socketpair fd. Every request carries a
``seq``; the worker caches its last reply and answers a retransmitted
``seq`` from the cache without recomputing. An ``init`` request delivers
the district snapshot; ``route``/``signal``/``commit`` drive the round
phases; ``audit`` returns a canonical digest (tests); EOF means the
coordinator is gone and the worker exits. Keep this module's import
graph lean (``repro.core`` + grid only): worker startup cost is paid on
every (re)spawn.
"""

from __future__ import annotations

import os
import signal as _signal
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cell import (
    CellState,
    dist_from_int,
    dist_to_int,
    effective_next,
    effective_nonempty,
)
from repro.core.dirty import DirtyCells, LiveDistView
from repro.core.entity import Entity
from repro.core.params import Parameters
from repro.core.route import RoutePhaseReport, _route_step
from repro.core.signal import SignalPhaseReport, _signal_step
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
# District computation (pure; shared with the coordinator fallback)
# ---------------------------------------------------------------------------


def compute_route_updates(
    grid: Grid,
    cells: Dict[CellId, CellState],
    tid: CellId,
    district: Sequence[CellId],
    dist_view,
) -> List[Tuple[CellId, int, Optional[CellId]]]:
    """Route over ``district`` (all of it, or its dirty cells) against
    pre-round dists.

    ``dist_view`` must map every listed cell's neighbors to the
    pre-round effective dist (``__getitem__`` protocol). Returns
    ``(cid, dist_int, next)`` for every evaluated cell, in the order
    given; application is a separate step so the snapshot semantics of
    the reference's Jacobi sweep are preserved.
    """
    updates: List[Tuple[CellId, int, Optional[CellId]]] = []
    for cid in district:
        state = cells[cid]
        if state.failed or cid == tid:
            continue
        new_dist, new_next = _route_step(grid, cid, dist_view)
        updates.append((cid, dist_to_int(new_dist), new_next))
    return updates


def apply_route_updates(
    cells: Dict[CellId, CellState],
    updates: Sequence[Tuple[CellId, int, Optional[CellId]]],
    report: Optional[RoutePhaseReport] = None,
) -> None:
    """Apply Route results, recording actual changes like the reference.

    ``updates`` must already be in the iteration order the report lists
    should have (the worker applies its district slice; the coordinator
    applies the globally row-major-sorted merge).
    """
    for cid, dist_int, new_next in updates:
        state = cells[cid]
        new_dist = dist_from_int(dist_int)
        if new_dist != state.dist:
            if report is not None:
                report.changed_dist.append(cid)
            state.dist = new_dist
        if new_next != state.next_id:
            if report is not None:
                report.changed_next.append(cid)
            state.next_id = new_next


def compute_signal_updates(
    grid: Grid,
    cells: Dict[CellId, CellState],
    params: Parameters,
    policy: TokenPolicy,
    district: Sequence[CellId],
    next_of: Callable[[CellId], Optional[CellId]],
    nonempty_of: Callable[[CellId], bool],
) -> Dict[str, Any]:
    """Signal over ``district`` (all of it, or its pending cells),
    mutating the cells' own variables.

    ``next_of`` / ``nonempty_of`` must answer for every neighbor of a
    listed cell (in- or out-of-district) with post-Route effective
    values. Mutates ``token``/``signal``/``ne_prev`` of the listed
    non-failed cells exactly like the reference sweep, and returns the
    wire-format result the coordinator merges: per-cell value updates
    plus the slice of the grant report, all in the order given.
    """
    ne_prev_map = {}
    for cid in district:
        state = cells[cid]
        if state.failed:
            continue
        ne_prev = {
            nbr
            for nbr in grid.neighbors(cid)
            if next_of(nbr) == cid and nonempty_of(nbr)
        }
        ne_prev_map[cid] = ne_prev
    report = SignalPhaseReport()
    updates: List[Tuple[CellId, Tuple[CellId, ...], Optional[CellId], Optional[CellId]]] = []
    for cid, ne_prev in ne_prev_map.items():
        state = cells[cid]
        _signal_step(state, ne_prev, params, policy, report)
        updates.append((cid, tuple(sorted(ne_prev)), state.token, state.signal))
    return {
        "updates": updates,
        "granted": list(report.granted.items()),
        "blocked": report.blocked,
        "rotated": report.rotated,
    }


def apply_signal_updates(
    cells: Dict[CellId, CellState],
    updates: Sequence[Tuple[CellId, Sequence[CellId], Optional[CellId], Optional[CellId]]],
) -> None:
    """Write merged Signal values onto the cells (idempotent re-assign)."""
    for cid, ne_prev, token, sig in updates:
        state = cells[cid]
        state.ne_prev = set(ne_prev)
        state.token = token
        state.signal = sig


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


def apply_commit(
    cells: Dict[CellId, CellState],
    params: Parameters,
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
    for cid, toward, removed in movers:
        state = cells[cid]
        for entity in state.entities():
            entity.translate(toward, params.v)
        for uid in removed:
            state.members.pop(uid, None)
    for dst, wire in incoming:
        cells[dst].add_entity(entity_from_wire(wire))
    for dst, wire in produced:
        cells[dst].add_entity(entity_from_wire(wire))


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


class DistrictWorker(DirtyCells):
    """Request handler around one district's state and dirty sets.

    Usable in-process (tests drive it directly) or behind the pickle
    loop of :func:`serve`. A new worker starts with every district cell
    dirty, so its first round is a full sweep.
    """

    def __init__(self, init: Dict[str, Any]):
        self.grid = Grid(init["width"], init["height"])
        self.tid: CellId = init["tid"]
        self.params: Parameters = init["params"]
        self.policy: TokenPolicy = init["policy"]
        self.district: List[CellId] = list(init["district"])
        self.cells: Dict[CellId, CellState] = init["cells"]
        self.chaos: Optional[Dict[str, Any]] = init.get("chaos")
        self._track(self.grid, self.district)
        # The previous round's rim ghosts, compared against each new set.
        self._route_ghosts: Dict[CellId, float] = {}
        self._signal_ghosts: Dict[CellId, Tuple] = {}

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
        previous = self._route_ghosts
        for cid, dist in ghosts.items():
            if previous.get(cid) != dist:
                self._mark_dist_change(cid)
        self._route_ghosts = ghosts

    def _note_signal_ghosts(self, ghosts: Dict[CellId, Tuple]) -> None:
        """A rim cell whose ``(next, nonempty)`` differs from last round's
        wakes its district neighbors' Signal: a changed ``next`` and a
        changed membership both reach them only through ``NEPrev``."""
        previous = self._signal_ghosts
        for cid, ghost in ghosts.items():
            if previous.get(cid) != ghost:
                self._mark_next_change(cid)
        self._signal_ghosts = ghosts

    def _apply_member_sync(self, member_sync: Dict[CellId, Sequence[Sequence]]) -> None:
        apply_member_sync(self.cells, member_sync)
        for cid in member_sync:
            self._mark_membership_change(cid)

    # -- request handlers ----------------------------------------------

    def handle(self, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request frame to its phase handler."""
        if kind == "route":
            return self._handle_route(payload)
        if kind == "signal":
            return self._handle_signal(payload)
        if kind == "commit":
            return self._handle_commit(payload)
        if kind == "audit":
            return {"digest": district_digest(self.cells, self.district)}
        raise ValueError(f"unknown request kind {kind!r}")

    def _handle_route(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.tid = payload["tid"]
        events = payload.get("events", ())
        apply_events(self.cells, self.tid, events)
        for _, cid in events:
            self._mark_fault_event(cid)
        self._apply_member_sync(payload.get("member_sync", {}))
        ghosts = payload["ghosts"]
        self._note_route_ghosts(ghosts)
        changed = []
        for update in compute_route_updates(
            self.grid,
            self.cells,
            self.tid,
            self._take_route_dirty(),
            LiveDistView(self.cells, ghosts),
        ):
            cid, dist_int, new_next = update
            state = self.cells[cid]
            dist_changed = dist_from_int(dist_int) != state.dist
            next_changed = new_next != state.next_id
            if dist_changed:
                self._mark_dist_change(cid)
            if next_changed:
                self._mark_next_change(cid)
            if dist_changed or next_changed:
                changed.append(update)
        apply_route_updates(self.cells, changed)
        return {"updates": changed}

    def _handle_signal(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        ghosts: Dict[CellId, Tuple] = payload["ghosts"]
        self._note_signal_ghosts(ghosts)
        cells = self.cells

        def next_of(cid: CellId):
            state = cells.get(cid)
            if state is not None:
                return effective_next(state)
            return ghosts[cid][0]

        def nonempty_of(cid: CellId) -> bool:
            state = cells.get(cid)
            if state is not None:
                return effective_nonempty(state)
            return ghosts[cid][1]

        wire = compute_signal_updates(
            self.grid,
            cells,
            self.params,
            self.policy,
            self._take_signal_pending(),
            next_of,
            nonempty_of,
        )
        for cid, ne_prev, _, _ in wire["updates"]:
            self._keep_hot(cid, ne_prev)
        return wire

    def _handle_commit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        movers = payload.get("movers", ())
        incoming = payload.get("incoming", ())
        produced = payload.get("produced", ())
        apply_commit(self.cells, self.params, movers, incoming, produced)
        for cid, _, removed in movers:
            if removed:
                self._mark_membership_change(cid)
        for dst, _ in (*incoming, *produced):
            self._mark_membership_change(dst)
        return {"ok": True}


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
            result: Dict[str, Any] = {"ok": True, "cells": len(worker.cells)}
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
