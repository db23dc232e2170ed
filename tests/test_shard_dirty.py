"""District workers evaluate only dirty cells: planted bugs are caught.

A worker re-evaluates Route and Signal only on the district cells whose
inputs could have changed (:mod:`repro.core.dirty`), learning about
out-of-district changes by comparing each round's rim ghosts with what
its rim cells held, which then take the new values. The coordinator
lifts the Route rule to the district: it sends no route request to a
worker whose last reply said its Route-dirty set is empty, while no
event is queued for it and its rim dists are unchanged. A dropped rule
does not crash anything: it leaves a cell stale, and the round drifts
from the reference. These tests plant each worker-side rule's removal,
rim cells that are never refreshed, each way of skipping a route
request that was needed, and a signal request that leaves out a rim
ghost that changed, and require the lockstep to notice.

Worker processes cannot be monkeypatched, so the fleet here runs in the
test process: ``ShardCoordinator._open_channel`` is replaced by one
that returns a channel whose ``post`` / ``collect`` / ``request`` /
``close`` drive the worker class under test directly, pickling each
payload and reply as the socket would.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.shard.coordinator import ShardCoordinator
from repro.shard.worker import DistrictWorker, apply_member_sync
from repro.sim.simulator import build_simulation
from repro.testing.differential import canonical_report, canonical_state, random_config

SEEDS = range(6)
SHARD_COUNTS = (2, 4)
ROUNDS = 30
#: The round before which an entity is seeded into an empty cell (what
#: serve ``arrive`` does; it reaches the owning worker as ``member_sync``).
SEED_ROUND = 12
#: Rounds before which a relocating run moves the target (serve
#: ``relocate``): twice to the live cell farthest from it, then back.
RELOCATE_ROUNDS = (8, 16, 24)


def _wire(value):
    return pickle.loads(pickle.dumps(value))


class InProcessChannel:
    """The ``ShardChannel`` surface the coordinator uses, over a worker
    object in this process."""

    def __init__(self, worker_class):
        self.worker_class = worker_class
        self.worker = None
        self._pending = None

    def post(self, kind, payload):
        self._pending = (kind, _wire(payload))

    def collect(self, timeout=None):
        kind, payload = self._pending
        self._pending = None
        if kind == "init":
            self.worker = self.worker_class(payload)
            return {"ok": True, "cells": len(self.worker.cells)}
        return _wire(self.worker.handle(kind, payload))

    def request(self, kind, payload, timeout=None):
        self.post(kind, payload)
        return self.collect(timeout)

    def close(self):
        self.worker = None


def use_in_process_fleet(monkeypatch, worker_class=DistrictWorker):
    monkeypatch.setattr(
        ShardCoordinator,
        "_open_channel",
        lambda coordinator, handle: InProcessChannel(worker_class),
    )


def seed_cell(system):
    """A live, empty cell with a route whose next hop is quiet (empty
    ``NEPrev``): only the membership rule wakes that hop's Signal."""
    for cid in sorted(system.cells):
        state = system.cells[cid]
        if state.failed or state.members or cid == system.tid:
            continue
        nxt = state.next_id
        if nxt is None:
            continue
        hop = system.cells[nxt]
        if not hop.failed and not hop.ne_prev:
            return cid
    return None


def relocate(sims, round_index, start):
    """Move every run's target the same way (see ``RELOCATE_ROUNDS``)."""
    system = sims["reference"].system
    if round_index == RELOCATE_ROUNDS[-1]:
        cell = start
    else:
        (i, j) = system.tid
        cell = max(
            (
                cid
                for cid in sorted(system.cells)
                if not system.cells[cid].failed and cid not in system.sources
            ),
            key=lambda cid: abs(cid[0] - i) + abs(cid[1] - j),
        )
    for sim in sims.values():
        sim.system.recover(cell)  # a no-op unless churn failed it
        sim.system.relocate_target(cell)


def first_divergence(seed, worker_class=DistrictWorker, relocating=False):
    """Reference vs the in-process fleet at 2 and 4 shards, in lockstep
    (``relocating``: with the target moved at ``RELOCATE_ROUNDS``).

    Returns ``None`` when every round's report and state match and every
    worker's mirror audits in sync, else a description of the first
    mismatch.
    """
    config = replace(random_config(seed, faulting=True), rounds=ROUNDS)
    sims = {"reference": build_simulation(config, engine="reference")}
    for shards in SHARD_COUNTS:
        sims[f"sharded@{shards}"] = build_simulation(
            replace(config, shards=shards), engine="sharded"
        )
    start = sims["reference"].system.tid
    try:
        for round_index in range(config.rounds):
            if relocating and round_index in RELOCATE_ROUNDS:
                relocate(sims, round_index, start)
            if round_index == SEED_ROUND:
                cid = seed_cell(sims["reference"].system)
                if cid is not None:
                    for sim in sims.values():
                        sim.system.seed_entity(cid, cid[0] + 0.5, cid[1] + 0.5)
            reports = {name: canonical_report(sim.step()) for name, sim in sims.items()}
            states = {name: canonical_state(sim.system) for name, sim in sims.items()}
            for name in sims:
                if reports[name] != reports["reference"]:
                    return f"round {round_index}: {name} report != reference"
                if states[name] != states["reference"]:
                    return f"round {round_index}: {name} state != reference"
        for name, sim in sims.items():
            if name == "reference":
                continue
            verdicts = sim.engine.coordinator.audit()
            if not verdicts or not all(verdicts.values()):
                return f"{name} worker mirrors out of sync: {verdicts}"
        return None
    finally:
        for sim in sims.values():
            sim.engine.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_dirty_worker_matches_reference(monkeypatch, seed):
    use_in_process_fleet(monkeypatch)
    assert first_divergence(seed) is None


@pytest.mark.parametrize("seed", SEEDS)
def test_dirty_worker_follows_relocations(monkeypatch, seed):
    use_in_process_fleet(monkeypatch)
    assert first_divergence(seed, relocating=True) is None


def test_seeded_cell_exists_on_every_seed():
    """The member_sync leg is only a test where an entity is seeded."""
    for seed in SEEDS:
        config = replace(random_config(seed, faulting=True), rounds=ROUNDS)
        sim = build_simulation(config, engine="reference")
        for _ in range(SEED_ROUND):
            sim.step()
        assert seed_cell(sim.system) is not None, seed


# ----------------------------------------------------------------------
# Mutants: each drops one worker-side rule
# ----------------------------------------------------------------------


class _IgnoreRimDistWorker(DistrictWorker):
    """MUTANT: a rim cell's changed dist never wakes its district
    neighbors' Route, so the distance wave stops at the district edge."""

    def _note_route_ghosts(self, ghosts):
        pass


class _IgnoreRimSignalWorker(DistrictWorker):
    """MUTANT: a rim cell's changed ``(next, nonempty)`` never wakes its
    district neighbors' Signal, so entities waiting across the edge are
    invisible to ``NEPrev``."""

    def _note_signal_ghosts(self, ghosts):
        pass


class _FrozenRimWorker(DistrictWorker):
    """MUTANT: the rim cells keep the values of the first ghosts the
    worker received, so the district's Route and Signal read a
    neighborhood that has since changed (the ghost comparisons still
    wake the right cells)."""

    def _refresh_rim_dists(self, ghosts):
        if not getattr(self, "_rim_dists_frozen", False):
            super()._refresh_rim_dists(ghosts)
            self._rim_dists_frozen = True

    def _refresh_rim_signal(self, ghosts):
        if not getattr(self, "_rim_signal_frozen", False):
            super()._refresh_rim_signal(ghosts)
            self._rim_signal_frozen = True


class _NoHotRuleWorker(DistrictWorker):
    """MUTANT: a cell that granted or blocked is not re-evaluated next
    round, so its token never rotates and a blocked neighbor is never
    retried."""

    def _keep_hot(self, cid, ne_prev):
        pass


class _NoMemberSyncMarkingWorker(DistrictWorker):
    """MUTANT: a seeded entity reaches the worker's cell but never wakes
    the neighbors' Signal, so the next hop never grants it."""

    def _apply_member_sync(self, member_sync):
        apply_member_sync(self.cells, member_sync)


class _QuietWhileDirtyWorker(DistrictWorker):
    """MUTANT: every reply says the Route-dirty set is empty, so the
    coordinator stops asking for Route while the district still holds
    cells its last round's changes woke."""

    def _route_quiet(self):
        return True


class _DeafToRelocationWorker(DistrictWorker):
    """MUTANT: ``relocate`` events are dropped, so the worker's mirror
    keeps the old target at dist 0 and never anchors the new one."""

    def _apply_queue(self, payload):
        events = [e for e in payload.get("events", ()) if e[0] != "relocate"]
        super()._apply_queue({**payload, "events": events})


def test_worker_deaf_to_relocation_is_caught(monkeypatch):
    use_in_process_fleet(monkeypatch, _DeafToRelocationWorker)
    caught = [
        seed
        for seed in SEEDS
        if first_divergence(seed, _DeafToRelocationWorker, relocating=True)
        is not None
    ]
    assert caught == list(SEEDS)


@pytest.mark.parametrize(
    "mutant",
    [
        _IgnoreRimDistWorker,
        _IgnoreRimSignalWorker,
        _NoHotRuleWorker,
        _NoMemberSyncMarkingWorker,
        _FrozenRimWorker,
        _QuietWhileDirtyWorker,
    ],
    ids=[
        "rim-dist",
        "rim-next-nonempty",
        "hot-rule",
        "member-sync",
        "frozen-rim",
        "quiet-while-dirty",
    ],
)
def test_dropped_worker_rule_is_caught(monkeypatch, mutant):
    use_in_process_fleet(monkeypatch, mutant)
    caught = [seed for seed in SEEDS if first_divergence(seed, mutant) is not None]
    assert caught == list(SEEDS), f"{mutant.__name__} passed seeds " + str(
        sorted(set(SEEDS) - set(caught))
    )


# ----------------------------------------------------------------------
# Mutants: the coordinator skips a route request that was needed
# ----------------------------------------------------------------------


def _skips_with_event_queued(handle, dists):
    """MUTANT: a quiet district is not asked for Route although a
    fail/recover/relocate event is queued for it; the event then rides
    the signal request, a round late for Route."""
    return handle.route_quiet and dists == handle.sent_dists


def _skips_with_rim_dist_changed(handle, dists):
    """MUTANT: a quiet district is not asked for Route although a rim
    dist changed, so a distance wave stops at the district edge."""
    return handle.route_quiet and not handle.pending_events


@pytest.mark.parametrize(
    "skips",
    [_skips_with_event_queued, _skips_with_rim_dist_changed],
    ids=["event-queued", "rim-dist-changed"],
)
def test_needed_route_request_skipped_is_caught(monkeypatch, skips):
    use_in_process_fleet(monkeypatch)
    monkeypatch.setattr(ShardCoordinator, "_skips_route", staticmethod(skips))
    caught = [seed for seed in SEEDS if first_divergence(seed) is not None]
    assert caught == list(SEEDS), f"{skips.__name__} passed seeds " + str(
        sorted(set(SEEDS) - set(caught))
    )


# ----------------------------------------------------------------------
# Mutant: the coordinator leaves out a Signal ghost that changed
# ----------------------------------------------------------------------

_CHANGED_GHOSTS = ShardCoordinator._changed_ghosts


def _leaves_out_one_changed_ghost(handle, ghosts):
    """MUTANT: each signal request to a running worker leaves out the
    first rim ghost that changed, so that rim cell keeps a stale
    ``(next, nonempty)`` and its district neighbor's ``NEPrev`` is
    wrong."""
    changed = _CHANGED_GHOSTS(handle, ghosts)
    if handle.sent_ghosts is not None and changed:
        del changed[next(iter(changed))]
    return changed


def test_changed_ghost_left_out_is_caught(monkeypatch):
    use_in_process_fleet(monkeypatch)
    monkeypatch.setattr(
        ShardCoordinator,
        "_changed_ghosts",
        staticmethod(_leaves_out_one_changed_ghost),
    )
    caught = [seed for seed in SEEDS if first_divergence(seed) is not None]
    assert caught == list(SEEDS), "passed seeds " + str(
        sorted(set(SEEDS) - set(caught))
    )
