"""The shard coordinator: authoritative state, merge, and healing.

The coordinator owns the **authoritative** :class:`~repro.core.system.System`
— the same object monitors, metrics, traces and the lockstep harness
observe — and drives one round as three exchanges with the shard fleet:

1. **route**: ship each live shard the live target ``tid``, its rim's
   pre-round effective dists, and any fail/recover/relocate events and
   membership resyncs for its own cells (a target relocation is a
   ``relocate`` event for each of the old and the new target's
   districts); each worker re-evaluates Route on its district's dirty
   cells (:mod:`repro.core.dirty`) and returns the cells whose ``dist``
   or ``next`` changed. The coordinator sorts the merged results into
   global row-major order and applies them — producing the exact
   ``RoutePhaseReport`` the reference sweep would, since applying
   records only real changes.
2. **signal**: ship post-Route rim ``(next, nonempty)`` ghosts; workers
   run Signal over their pending cells (mutating their own token/signal
   state with the identical rules) and return value updates plus their
   slice of the grant report; again merged row-major. A live cell no
   worker evaluated holds ``(NEPrev, token, signal) = (empty, bot, bot)``,
   which is what the reference sweep would write.
3. Move runs **coordinator-side** (on the movers derived from the
   merged grant report, exactly like the incremental engine), as does
   source production — one global RNG stream, unsplittable. A
   **commit** message then replays each district's slice of the
   outcome (translations, transfers, produced entities) on its worker.

:func:`~repro.core.system.run_round` assembles the three phases and
production into the round, with the commit as its production hook.
Because every phase merge is applied to the authoritative state in the
reference's own order by the reference's own rules, the round is
byte-identical to the reference engine for *any* shard count — the
property ``tests/test_shard_engine.py`` proves over the 26-seed faulting
matrix.

**Healing.** A shard that dies mid-round (worker exit, heartbeat
timeout, unrecoverable channel corruption) does not corrupt the round:
the coordinator finishes the missing phases *locally* with the same pure
district functions (:mod:`repro.shard.worker`) over authoritative state,
so the death round itself is state-identical to a run without the death.
The fault semantics land at the next round boundary — a legal
environment-transition point, the same place the fault injector acts:
every cell of the dead district is ``fail()``-ed, neighbors observe the
crash through the standard masking and re-route around it (Lemma 6),
and after ``heal_delay`` rounds the shard is respawned from an
authoritative snapshot, its cells recovered, and re-stabilization is
watched against the ``O(h)`` horizon. When the respawn budget is
exhausted the shard degrades permanently: its district stays failed and
the coordinator simulates any recovered stragglers inline, the run
completes, and the engine reports ``degraded=True`` plus the full
healing log. See docs/sharding.md for the state machine.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import repro
from repro.core.cell import effective_dist, effective_next, effective_nonempty
from repro.core.dirty import row_major as _row_major
from repro.core.move import MovePhaseReport, movers_from_grants
from repro.core.route import RoutePhaseReport, int_dist_snapshot
from repro.core.signal import SignalPhaseReport
from repro.core.system import RoundReport, System, run_round
from repro.grid.topology import CellId, direction_between
from repro.shard.channel import ChannelError, ShardChannel
from repro.shard.partition import ShardPlan
from repro.shard.worker import (
    apply_route_updates,
    apply_signal_updates,
    compute_route_updates,
    compute_signal_updates,
    entity_to_wire,
)
from repro.sim.supervisor import RetryPolicy


class _ShardHandle:
    """One shard's process, channel, and lifecycle bookkeeping."""

    __slots__ = (
        "shard_id",
        "district",
        "district_set",
        "rim",
        "status",
        "process",
        "channel",
        "pending_events",
        "pending_member_sync",
        "cells_failed",
        "failed_by_us",
        "respawn_round",
        "respawns_used",
        "watch_start",
    )

    def __init__(self, district, rim):
        self.shard_id: int = district.shard_id
        self.district: Tuple[CellId, ...] = district.cells
        self.district_set: Set[CellId] = set(district.cells)
        self.rim: Tuple[CellId, ...] = rim
        self.status: str = "live"  # live | dead | degraded
        self.process: Optional[subprocess.Popen] = None
        self.channel: Optional[ShardChannel] = None
        self.pending_events: List[Tuple[str, CellId]] = []
        self.pending_member_sync: Set[CellId] = set()
        self.cells_failed: bool = False
        self.failed_by_us: Set[CellId] = set()
        self.respawn_round: Optional[int] = None
        self.respawns_used: int = 0
        self.watch_start: Optional[int] = None


class ShardCoordinator:
    """Drives one sharded ``update`` per :meth:`step` (see module doc)."""

    def __init__(
        self,
        system: System,
        plan: ShardPlan,
        *,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = 30.0,
        init_timeout: Optional[float] = 120.0,
        heal_delay: int = 2,
        respawn_budget: int = 2,
        horizon: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
        metrics=None,
        chaos: Optional[Dict[int, Dict[str, Any]]] = None,
    ):
        if heal_delay < 1:
            raise ValueError(f"heal_delay must be >= 1 round, got {heal_delay}")
        if respawn_budget < 0:
            raise ValueError(f"respawn_budget must be >= 0, got {respawn_budget}")
        self.system = system
        self.plan = plan
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self.init_timeout = init_timeout
        self.heal_delay = heal_delay
        self.respawn_budget = respawn_budget
        #: Re-stabilization bound for the healing watch: Corollary 7's
        #: ``O(N^2)`` worst case (Lemma 6's ``O(h)`` with ``h <= N``).
        self.horizon = horizon if horizon is not None else system.grid.size + 2
        self.sleep = sleep
        self.metrics = metrics
        self.chaos = chaos or {}
        #: Structured healing history: death / district-failed / heal /
        #: stabilized / degraded entries, in order.
        self.healing_log: List[Dict[str, Any]] = []
        #: True once any shard exhausted its respawn budget.
        self.degraded = False
        self._handles = [
            _ShardHandle(district, plan.rim(district.shard_id))
            for district in plan.districts
        ]
        self._started = False
        self._chained_cell_observer = system.cell_observer
        system.cell_observer = self._on_cell_event

    # ------------------------------------------------------------------
    # Observer chaining: environment transitions feed live shards
    # ------------------------------------------------------------------

    def _on_cell_event(self, event: str, cid: CellId) -> None:
        handle = self._handles[self.plan.owner(cid)]
        if handle.status == "live":
            if event == "members":
                handle.pending_member_sync.add(cid)
            else:  # fail / recover / relocate
                handle.pending_events.append((event, cid))
        if event == "relocate" and cid != self.system.tid and self._started:
            # Fired for the old target, then the new one: one entry per
            # relocation sent to the running fleet.
            round_index = self.system.round_index
            self._log({"event": "relocated", "round": round_index, "cell": list(cid)})
        if self._chained_cell_observer is not None:
            self._chained_cell_observer(event, cid)

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------

    def step(self) -> RoundReport:
        """Run one full round across the fleet; returns the merged report."""
        self._ensure_started()
        self._begin_round()
        report = run_round(
            self.system,
            self._route_phase,
            self._signal_phase,
            self._move_phase,
            self._commit_phase,
        )
        self._watch_stabilization(report.round_index, report.route)
        return report

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _route_phase(self) -> RoutePhaseReport:
        system = self.system
        cells = system.cells

        def payload(handle: _ShardHandle) -> Dict[str, Any]:
            events, handle.pending_events = handle.pending_events, []
            sync, handle.pending_member_sync = handle.pending_member_sync, set()
            return {
                "round": system.round_index,
                "tid": system.tid,
                "events": events,
                "member_sync": {
                    cid: [
                        entity_to_wire(cells[cid].members[uid])
                        for uid in sorted(cells[cid].members)
                    ]
                    for cid in sync
                },
                "ghosts": {cid: effective_dist(cells[cid]) for cid in handle.rim},
            }

        results = self._gather("route", payload)
        merged: List[Tuple[CellId, int, Optional[CellId]]] = []
        # Nothing is applied until every district has answered, so the
        # live state is still pre-round here; the fallback snapshots it
        # only when some district needs one.
        dist_view: Optional[Dict[CellId, int]] = None
        for handle in self._handles:
            wire = results.get(handle.shard_id)
            if wire is not None:
                merged.extend(wire["updates"])
                continue
            # Dead/degraded shard (or one that died this phase): the
            # coordinator stands in with the same pure district sweep
            # over authoritative state.
            handle.pending_events = []
            handle.pending_member_sync = set()
            if dist_view is None:
                dist_view = int_dist_snapshot(cells)
            merged.extend(
                compute_route_updates(
                    system.grid, cells, system.tid, handle.district, dist_view
                )
            )
        merged.sort(key=lambda update: _row_major(update[0]))
        report = RoutePhaseReport()
        apply_route_updates(cells, merged, report)
        return report

    def _signal_phase(self, route_report: RoutePhaseReport) -> SignalPhaseReport:
        system = self.system
        cells = system.cells

        def payload(handle: _ShardHandle) -> Dict[str, Any]:
            return {
                "round": system.round_index,
                "ghosts": {
                    cid: (effective_next(cells[cid]), effective_nonempty(cells[cid]))
                    for cid in handle.rim
                },
            }

        results = self._gather("signal", payload)
        wires: List[Dict[str, Any]] = []
        for handle in self._handles:
            wire = results.get(handle.shard_id)
            if wire is None:
                # Fallback mutates the authoritative cells directly with
                # the reference rules; its wire output joins the merge
                # like any worker's (re-assignment is idempotent).
                wire = compute_signal_updates(
                    system.grid,
                    cells,
                    system.params,
                    system.token_policy,
                    handle.district,
                    lambda c: effective_next(cells[c]),
                    lambda c: effective_nonempty(cells[c]),
                )
            wires.append(wire)
        updates = sorted(
            (update for wire in wires for update in wire["updates"]),
            key=lambda update: _row_major(update[0]),
        )
        apply_signal_updates(cells, updates)
        report = SignalPhaseReport()
        for granter, grantee in sorted(
            (pair for wire in wires for pair in wire["granted"]),
            key=lambda pair: _row_major(pair[0]),
        ):
            report.granted[granter] = grantee
        report.blocked = sorted(
            (cid for wire in wires for cid in wire["blocked"]), key=_row_major
        )
        report.rotated = sorted(
            (entry for wire in wires for entry in wire["rotated"]),
            key=lambda entry: _row_major(entry[0]),
        )
        return report

    def _move_phase(self, signal_report: SignalPhaseReport) -> MovePhaseReport:
        """Move on the authoritative state, from the merged grant report
        (``movers_from_grants``, as the incremental engine does); the
        movers and the report are kept for the commit."""
        movers = movers_from_grants(signal_report.granted)
        self._moves = (movers, self.system.move_cells(movers))
        return self._moves[1]

    def _commit_phase(self, produced) -> None:
        """Replay each district's slice of this round's Move and
        production on its worker."""
        system = self.system
        movers, move_report = self._moves
        removed_by_src: Dict[CellId, List[int]] = {}
        for transfer in move_report.transfers:
            removed_by_src.setdefault(transfer.src, []).append(transfer.uid)
        mover_wire = [
            (cid, direction_between(cid, nxt), removed_by_src.get(cid, []))
            for cid, nxt in movers
        ]
        incoming = [
            (t.dst, entity_to_wire(system.cells[t.dst].members[t.uid]))
            for t in move_report.transfers
            if not t.consumed
        ]
        produced_wire = [(e.cell, entity_to_wire(e)) for e in produced]

        def payload(handle: _ShardHandle) -> Dict[str, Any]:
            inside = handle.district_set
            return {
                "round": system.round_index,
                "movers": [m for m in mover_wire if m[0] in inside],
                "incoming": [x for x in incoming if x[0] in inside],
                "produced": [x for x in produced_wire if x[0] in inside],
            }

        self._gather("commit", payload)

    # ------------------------------------------------------------------
    # Fleet exchange
    # ------------------------------------------------------------------

    def _gather(
        self, kind: str, build_payload: Callable[[_ShardHandle], Dict[str, Any]]
    ) -> Dict[int, Dict[str, Any]]:
        """Post ``kind`` to every live shard, then collect the replies.

        A shard whose exchange fails is transitioned to ``dead`` (its
        process reaped, death scheduled for the next round boundary) and
        simply omitted from the result — the caller's fallback covers
        it. Posting everything before collecting anything lets district
        sweeps run concurrently.
        """
        results: Dict[int, Dict[str, Any]] = {}
        posted: List[_ShardHandle] = []
        for handle in self._handles:
            if handle.status != "live":
                continue
            try:
                assert handle.channel is not None
                handle.channel.post(kind, build_payload(handle))
                posted.append(handle)
            except ChannelError as exc:
                self._shard_failed(handle, kind, exc)
        for handle in posted:
            if handle.status != "live":
                continue
            try:
                assert handle.channel is not None
                results[handle.shard_id] = handle.channel.collect()
            except ChannelError as exc:
                self._shard_failed(handle, kind, exc)
        return results

    def _shard_failed(self, handle: _ShardHandle, phase: str, exc: ChannelError) -> None:
        """Mid-round shard death: reap now, apply fault semantics at the
        next round boundary (`_begin_round`)."""
        self._reap(handle)
        handle.status = "dead"
        handle.cells_failed = False
        handle.respawn_round = self.system.round_index + 1 + self.heal_delay
        self._count("shard.deaths")
        self._log(
            {
                "event": "death",
                "round": self.system.round_index,
                "shard": handle.shard_id,
                "phase": phase,
                "reason": type(exc).__name__,
                "detail": str(exc),
            }
        )

    # ------------------------------------------------------------------
    # Lifecycle: deaths, respawns, degradation, stabilization watch
    # ------------------------------------------------------------------

    def _begin_round(self) -> None:
        system = self.system
        round_index = system.round_index
        for handle in self._handles:
            if handle.status != "dead":
                continue
            if not handle.cells_failed:
                # The death's observable effect, at a legal environment-
                # transition point: the whole district crashes.
                handle.failed_by_us = set()
                for cid in handle.district:
                    if not system.cells[cid].failed:
                        system.fail(cid)
                        handle.failed_by_us.add(cid)
                handle.cells_failed = True
                self._log(
                    {
                        "event": "district-failed",
                        "round": round_index,
                        "shard": handle.shard_id,
                        "cells": len(handle.failed_by_us),
                    }
                )
            if handle.respawn_round is not None and round_index >= handle.respawn_round:
                if handle.respawns_used >= self.respawn_budget:
                    handle.status = "degraded"
                    self.degraded = True
                    self._log(
                        {
                            "event": "degraded",
                            "round": round_index,
                            "shard": handle.shard_id,
                            "respawns_used": handle.respawns_used,
                        }
                    )
                    continue
                handle.respawns_used += 1
                for cid in sorted(handle.failed_by_us, key=_row_major):
                    system.recover(cid)
                handle.failed_by_us = set()
                try:
                    self._spawn(handle)
                except ChannelError as exc:
                    self._shard_failed(handle, "init", exc)
                    continue
                handle.status = "live"
                handle.watch_start = round_index
                self._count("shard.heals")
                self._log(
                    {
                        "event": "heal",
                        "round": round_index,
                        "shard": handle.shard_id,
                        "respawns_used": handle.respawns_used,
                    }
                )

    def _watch_stabilization(
        self, round_index: int, route_report: RoutePhaseReport
    ) -> None:
        for handle in self._handles:
            if handle.watch_start is None:
                continue
            rounds = round_index - handle.watch_start
            if route_report.quiescent:
                self._observe("shard.respawn_rounds", rounds)
                self._log(
                    {
                        "event": "stabilized",
                        "round": round_index,
                        "shard": handle.shard_id,
                        "rounds": rounds,
                        "horizon": self.horizon,
                        "within_horizon": rounds <= self.horizon,
                    }
                )
                handle.watch_start = None
            elif rounds > self.horizon:
                self._log(
                    {
                        "event": "stabilization-overdue",
                        "round": round_index,
                        "shard": handle.shard_id,
                        "rounds": rounds,
                        "horizon": self.horizon,
                    }
                )
                handle.watch_start = None

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        for handle in self._handles:
            if handle.status == "live" and handle.channel is None:
                self._spawn(handle)

    def _spawn(self, handle: _ShardHandle) -> None:
        system = self.system
        parent_sock, child_sock = socket.socketpair()
        try:
            child_fd = child_sock.fileno()
            handle.process = subprocess.Popen(
                [sys.executable, "-m", "repro.shard._worker_main", str(child_fd)],
                pass_fds=(child_fd,),
                env=self._child_env(),
                close_fds=True,
            )
        finally:
            child_sock.close()
        from multiprocessing.connection import Connection

        conn = Connection(parent_sock.detach())
        handle.channel = ShardChannel(
            conn,
            handle.shard_id,
            retry=self.retry,
            timeout=self.timeout,
            sleep=self.sleep,
            metrics=self.metrics,
        )
        init = {
            "width": system.grid.width,
            "height": system.grid.height,
            "tid": system.tid,
            "params": system.params,
            "policy": system.token_policy.clone(),
            "district": list(handle.district),
            "cells": {
                cid: system.cells[cid].clone() for cid in handle.district
            },
            "chaos": self.chaos.get(handle.shard_id),
        }
        handle.channel.request("init", init, timeout=self.init_timeout)

    def _child_env(self) -> Dict[str, str]:
        """Child environment with the package root on PYTHONPATH, so the
        ``-m repro.shard._worker_main`` entry imports regardless of how
        the coordinator process itself found the package."""
        env = dict(os.environ)
        pkg_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        if pkg_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                pkg_root + os.pathsep + existing if existing else pkg_root
            )
        return env

    def _reap(self, handle: _ShardHandle) -> None:
        if handle.channel is not None:
            handle.channel.close()
            handle.channel = None
        process, handle.process = handle.process, None
        if process is not None and process.poll() is None:
            process.kill()
            try:
                process.wait(timeout=5)
            except (subprocess.TimeoutExpired, OSError):
                pass

    def close(self) -> None:
        """Shut the fleet down (idempotent). A later :meth:`step` redeploys
        live shards from the current authoritative state."""
        for handle in self._handles:
            self._reap(handle)
        self._started = False

    # ------------------------------------------------------------------
    # Audit (tests): compare worker mirrors against authoritative state
    # ------------------------------------------------------------------

    def audit(self) -> Dict[int, bool]:
        """Ask each live worker for its district digest and compare it to
        the authoritative state; returns shard_id -> in_sync."""
        from repro.shard.worker import district_digest

        verdicts: Dict[int, bool] = {}
        for handle in self._handles:
            if handle.status != "live" or handle.channel is None:
                continue
            reply = handle.channel.request("audit", {})
            expected = district_digest(self.system.cells, handle.district)
            verdicts[handle.shard_id] = reply["digest"] == expected
        return verdicts

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _log(self, entry: Dict[str, Any]) -> None:
        self.healing_log.append(entry)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _observe(self, name: str, value) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)
