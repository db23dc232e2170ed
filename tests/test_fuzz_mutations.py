"""Mutation-testing the fuzzer: planted bugs must be found AND shrunk.

A fuzzer that never fires is indistinguishable from a fuzzer that
cannot fire. This module plants three known bugs into the incremental
engine — the two dirty-set mutants from the engine-differential suite
(dropped dist-propagation rule, stale grant) plus a new Move-phase
off-by-``l/2`` transfer-snap bug — and asserts, for each:

1. a short fuzz campaign over the ordinary seed range *detects* it;
2. the shrinker reduces the first failing scenario to a minimal repro
   of at most 6 rounds on at most a 4x4 grid;
3. the written JSON artifact, replayed through the ``fuzz replay`` CLI,
   reproduces the identical violation (exit code 0).

The campaign's multi-commodity seeds run the same incremental engine,
so each mutant re-expresses its phase through the system's own phase
methods (``signal_cells``, ``movers``, ``move_cells``) and plants the
same bug on both kinds of system.

The campaigns run with ``workers=1`` on purpose: monkeypatched engine
classes exist only in this process, and the in-process path of
``ParallelSweepRunner`` is what keeps them visible to the oracles.
"""

from __future__ import annotations

import pytest

from repro.grid.topology import direction_between
from repro.fuzz.campaign import run_campaign
from repro.fuzz.generator import generate_scenario
from repro.fuzz.shrink import replay_repro, shrink_scenario, write_repro
from repro.sim import engine as engine_module
from repro.sim.engine import ENGINES, IncrementalEngine
from repro.cli.main import main as cli_main

#: Seed range the campaigns scan. Wide enough that every mutant is hit
#: by multiple scenarios (the differential oracle runs the incremental
#: engine on every seed), small enough to keep the suite quick.
CAMPAIGN_SEEDS = range(0, 12)


class _DropDistPropagationEngine(IncrementalEngine):
    """PLANTED (PR 4): dist changes never wake the neighbors' Route."""

    def _mark_dist_change(self, cid):
        pass


class _StaleSignalEngine(IncrementalEngine):
    """PLANTED (PR 4): a granted signal is never re-evaluated."""

    def _signal_phase(self, route_report):
        system = self.system
        for changed in route_report.changed_next:
            self._signal_pending.update(system.grid.neighbors(changed))
        # MUTANT: "a granted signal stays valid" - cells holding one are
        # skipped although they are legitimately pending.
        pending = [
            cid
            for cid in self._take_signal_pending()
            if not system.cells[cid].failed and system.cells[cid].signal is None
        ]
        report = system.signal_cells(pending)
        for cid in pending:
            if system.cells[cid].ne_prev:
                self._signal_pending.add(cid)
        return report

    def _move_phase(self, signal_report):
        system = self.system
        report = system.move_cells(system.movers())
        for transfer in report.transfers:
            self._mark_membership_change(transfer.src)
            if not transfer.consumed:
                self._mark_membership_change(transfer.dst)
        return report


class _OffByHalfSnapEngine(IncrementalEngine):
    """PLANTED (new): the transfer snap forgets the ``l/2`` inset.

    ``apply_moves`` snaps a crossing entity's center onto the
    destination's entry edge *inset by half the entity side* so the
    entity body lands fully inside the new cell. This mutant snaps the
    center onto the cell boundary itself (``m`` instead of
    ``m + l/2``), leaving half the entity overhanging the wall — an
    Invariant 1 (containment) violation on the destination cell at the
    very first transfer, and a state divergence from the reference
    engine at the same round.
    """

    def _move_phase(self, signal_report):
        report = super()._move_phase(signal_report)
        for transfer in report.transfers:
            if not transfer.consumed:
                entity = self.system.cells[transfer.dst].members[transfer.uid]
                toward = direction_between(transfer.src, transfer.dst)
                # MUTANT: half_l = 0 — snap onto the wall, not past it.
                entity.snap_to_entry_edge(transfer.dst, toward, 0.0)
        return report


MUTANTS = {
    "dropped-dirty-rule": _DropDistPropagationEngine,
    "stale-grant": _StaleSignalEngine,
    "snap-off-by-half-l": _OffByHalfSnapEngine,
}


def _campaign_with(monkeypatch, mutant):
    monkeypatch.setitem(engine_module.ENGINES, "incremental", mutant)
    return run_campaign(CAMPAIGN_SEEDS, workers=1)


@pytest.mark.parametrize("name", sorted(MUTANTS), ids=sorted(MUTANTS))
def test_campaign_detects_and_shrinks_mutant(monkeypatch, name, tmp_path):
    mutant = MUTANTS[name]
    result = _campaign_with(monkeypatch, mutant)
    assert result.failures, f"campaign missed the planted {name} bug"
    assert not result.errors

    first = result.failures[0]
    shrunk = shrink_scenario(generate_scenario(first.seed))
    config = shrunk.scenario.config
    assert config.rounds <= 6, (
        f"{name}: shrunk to {config.rounds} rounds (> 6): {shrunk.steps}"
    )
    width = config.grid_width
    height = config.grid_height or width
    assert width <= 4 and height <= 4, (
        f"{name}: shrunk to {width}x{height} grid (> 4x4): {shrunk.steps}"
    )
    assert shrunk.violations, "shrinking lost the violation"

    # The written artifact replays to the identical violation, both via
    # the library and via the CLI (exit 0 = byte-identical violations).
    path = write_repro(shrunk, tmp_path)
    artifact, recomputed = replay_repro(path)
    assert [v.to_dict() for v in recomputed] == artifact["violations"]
    assert cli_main(["fuzz", "replay", str(path)]) == 0


class _RecoverySkipEngine(IncrementalEngine):
    """PLANTED (PR 9): recovery events never re-wake Route relaxation.

    A recovered cell rejoins the grid but the incremental engine's dirty
    sets are never told, so routing around the healed region stays on
    its detour (or stays partitioned) indefinitely — exactly the failure
    mode the ``stabilization-bound`` oracle exists to catch: the run
    never re-converges to the BFS ground truth within the Lemma 6
    horizon after the adversary's last scripted recovery.
    """

    def _on_cell_event(self, event, cid):
        if event == "recover":
            return  # MUTANT: the healed cell stays invisible to Route
        super()._on_cell_event(event, cid)


def test_adversarial_campaign_detects_and_shrinks_recovery_skip(
    monkeypatch, tmp_path
):
    """Forced regional-failure campaign + stabilization-bound oracle:
    detect the planted recovery bug, shrink keeping the adversary, and
    replay the artifact byte-identically through the CLI."""
    monkeypatch.setitem(engine_module.ENGINES, "incremental", _RecoverySkipEngine)
    result = run_campaign(
        CAMPAIGN_SEEDS,
        oracle_names=["stabilization-bound"],
        workers=1,
        adversary="regional_failure",
    )
    assert result.failures, "campaign missed the planted recovery-skip bug"
    assert not result.errors
    assert all(
        v.oracle == "stabilization-bound"
        for outcome in result.failures
        for v in outcome.violations
    )

    first = result.failures[0]
    shrunk = shrink_scenario(
        generate_scenario(first.seed, adversary="regional_failure"),
        oracle_names=["stabilization-bound"],
    )
    # The oracle is gated on the adversary: dropping it would lose the
    # violation, so the shrinker must have kept (possibly weakened) it.
    assert shrunk.scenario.config.adversary is not None
    assert shrunk.scenario.config.adversary.startswith("regional_failure")
    assert shrunk.violations

    path = write_repro(shrunk, tmp_path)
    artifact, recomputed = replay_repro(path, oracle_names=["stabilization-bound"])
    assert [v.to_dict() for v in recomputed] == artifact["violations"]
    assert (
        cli_main(
            ["fuzz", "replay", str(path), "--oracles", "stabilization-bound"]
        )
        == 0
    )


def test_starvation_campaign_detects_and_shrinks_sticky_rotation(
    monkeypatch, tmp_path
):
    """Forced token-starvation campaign + token-fairness oracle: a
    rotation that parks on the served member (the Lemma 9 fairness step
    deleted) is detected, shrunk with the adversary intact, and the
    artifact replays identically through the CLI."""
    from repro.core.policies import RoundRobinTokenPolicy

    monkeypatch.setattr(
        RoundRobinTokenPolicy,
        "rotate",
        lambda self, ne_prev, current: current,  # MUTANT: never rotates
    )
    result = run_campaign(
        CAMPAIGN_SEEDS,
        oracle_names=["token-fairness"],
        workers=1,
        adversary="token_starvation",
    )
    assert result.failures, "campaign missed the planted sticky-token bug"
    assert not result.errors
    assert all(
        v.oracle == "token-fairness"
        for outcome in result.failures
        for v in outcome.violations
    )

    first = result.failures[0]
    shrunk = shrink_scenario(
        generate_scenario(first.seed, adversary="token_starvation"),
        oracle_names=["token-fairness"],
    )
    # The fairness oracle is gated on the policy, not the adversary:
    # once rotation itself is broken, the minimal repro no longer needs
    # the starvation workload — but it must still be a roundrobin run.
    assert shrunk.scenario.config.token_policy == "roundrobin"
    assert shrunk.violations

    path = write_repro(shrunk, tmp_path)
    artifact, recomputed = replay_repro(path, oracle_names=["token-fairness"])
    assert [v.to_dict() for v in recomputed] == artifact["violations"]
    assert (
        cli_main(["fuzz", "replay", str(path), "--oracles", "token-fairness"])
        == 0
    )


def test_clean_tree_campaign_is_quiet():
    """The same seed range on the unmutated engine finds nothing — the
    mutation detections above are signal, not noise."""
    result = run_campaign(CAMPAIGN_SEEDS, workers=1)
    assert not result.failures
    assert not result.errors


def test_registry_restored():
    """monkeypatch.setitem put the real engine back (paranoia check)."""
    assert ENGINES["incremental"] is IncrementalEngine
