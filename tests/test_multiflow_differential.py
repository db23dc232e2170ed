"""Lockstep differential proofs for the multi-commodity engines.

The core reference and incremental engines must be observationally
identical on a multi-commodity system too — canonical per-round states
(per-commodity dist/next tables, entity geometry with commodity tags,
the production/consumption ledgers), phase reports (including Signal
block reasons), monitor verdicts, and final result records — over a
randomized matrix of multi-commodity configs with faults, every
workload profile, and every token policy. Planted mutants prove the
harness has teeth: an incremental engine that swallows fault
invalidations is caught, and so is each dirty-set rule deleted in turn.
"""

from __future__ import annotations

import pytest

from repro.sim import engine as engine_module
from repro.sim.engine import IncrementalEngine
from repro.testing.differential import (
    DifferentialMismatch,
    random_multiflow_config,
    run_lockstep,
)

#: Seed matrix sizes: the acceptance bar is >= 20 fuzzed faulting
#: multi-commodity seeds in lockstep, plus a fault-free leg.
FAULTING_SEEDS = range(20)
CLEAN_SEEDS = range(4)


@pytest.mark.parametrize("seed", FAULTING_SEEDS)
def test_lockstep_under_faults(seed):
    """reference == incremental on a faulting multi-commodity config."""
    outcome = run_lockstep(random_multiflow_config(seed))
    assert outcome.digests


@pytest.mark.parametrize("seed", CLEAN_SEEDS)
def test_lockstep_fault_free(seed):
    """reference == incremental with the fault channel off."""
    outcome = run_lockstep(random_multiflow_config(seed, faulting=False))
    assert outcome.digests


class _DeafIncrementalEngine(IncrementalEngine):
    """Planted mutant: fault/recover events never dirty the sets, so
    routing state goes stale the moment a cell fails."""

    def _on_cell_event(self, event, cid):
        if self._chained_cell_observer is not None:
            self._chained_cell_observer(event, cid)


class _NoHotRuleEngine(IncrementalEngine):
    """Planted mutant: a cell that granted or blocked is not re-run."""

    def _keep_hot(self, cid, ne_prev):
        pass


class _NoMembershipRuleEngine(IncrementalEngine):
    """Planted mutant: transfers and production never wake the
    neighbors' Signal (residency changes go unseen)."""

    def _mark_membership_change(self, cid):
        pass


class _NoNextChangeRuleEngine(IncrementalEngine):
    """Planted mutant: a commodity's changed next hop never wakes the
    old and new pointees' Signal."""

    def _mark_next_change(self, cid):
        pass


@pytest.mark.parametrize(
    "mutant",
    [
        _DeafIncrementalEngine,
        _NoHotRuleEngine,
        _NoMembershipRuleEngine,
        _NoNextChangeRuleEngine,
    ],
    ids=[
        "deaf-observer",
        "no-hot-rule",
        "no-membership-marking",
        "no-next-change-marking",
    ],
)
def test_planted_mutant_is_caught(monkeypatch, mutant):
    """The harness must detect each planted incremental-engine bug on at
    least one faulting seed — otherwise the matrix proves nothing."""
    monkeypatch.setitem(engine_module.ENGINES, "incremental", mutant)
    caught = False
    for seed in FAULTING_SEEDS:
        try:
            run_lockstep(random_multiflow_config(seed))
        except DifferentialMismatch:
            caught = True
            break
    assert caught, f"no faulting seed exposed the planted {mutant.__name__}"
