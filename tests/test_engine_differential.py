"""Round-engine equivalence: the differential matrix plus engine units.

The headline test runs the lockstep harness (``repro.testing.differential``)
over a matrix of randomized seeded configurations — faulting and
fault-free, corridor and free-form — asserting that the incremental
dirty-set engine is observationally identical to the full-sweep
reference: same per-round state digests, same reports, same monitor
verdicts, same metrics registries, byte-identical trace files.

Mutation tests then *break* the incremental engine's dirty-set rules on
purpose (skip a legitimately dirty cell) and assert the harness and the
safety monitors catch the planted bug — evidence the equivalence tests
have teeth, not just green lights.
"""

from __future__ import annotations

import pytest

from repro.core.dirty import row_major as _row_major
from repro.core.move import apply_moves, collect_movers
from repro.core.params import Parameters
from repro.core.signal import SignalPhaseReport, _signal_step, compute_ne_prev
from repro.monitors.recorder import MonitorViolation
from repro.obs.instrument import ObservabilityConfig
from repro.sim import engine as engine_module
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    IncrementalEngine,
    ReferenceEngine,
    VectorizedEngine,
    make_engine,
    resolve_engine_name,
)
from repro.sim.simulator import build_simulation
from repro.testing.differential import (
    DifferentialMismatch,
    canonical_report,
    random_config,
    run_lockstep,
    state_digest,
)

#: Seeds for the randomized faulting matrix (the acceptance bar is >= 25
#: distinct faulting configurations with identical outcomes).
FAULTING_SEEDS = range(26)
FAULT_FREE_SEEDS = range(100, 106)


def corridor_config(**overrides) -> SimulationConfig:
    """The paper's straight-corridor setup (8x8, <1,0> to <1,7>)."""
    settings = dict(
        grid_width=8,
        params=Parameters(l=0.25, rs=0.05, v=0.2),
        rounds=200,
        path=tuple((1, j) for j in range(8)),
        seed=3,
    )
    settings.update(overrides)
    return SimulationConfig(**settings)


# ----------------------------------------------------------------------
# The differential matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", FAULTING_SEEDS)
def test_faulting_configs_are_equivalent(seed):
    outcome = run_lockstep(random_config(seed, faulting=True))
    assert len(outcome.digests) == outcome.config.rounds


@pytest.mark.parametrize("seed", FAULT_FREE_SEEDS)
def test_fault_free_configs_are_equivalent(seed):
    run_lockstep(random_config(seed, faulting=False))


def test_paper_corridor_is_equivalent():
    run_lockstep(corridor_config())


def test_free_form_multi_source_is_equivalent():
    config = SimulationConfig(
        grid_width=5,
        params=Parameters(l=0.25, rs=0.05, v=0.2),
        rounds=120,
        tid=(2, 2),
        sources=((0, 0), (4, 4), (0, 4)),
        source_policy="bernoulli:0.5",
        fault=FaultSpec(pf=0.05, pr=0.2),
        seed=11,
    )
    run_lockstep(config)


def test_traces_and_metrics_are_byte_identical(tmp_path):
    """The strongest observable: with full observability on, both engines
    write the same trace file bytes and the same metrics registry."""
    config = random_config(4242, faulting=True)
    trace_a = tmp_path / "reference.jsonl"
    trace_b = tmp_path / "incremental.jsonl"
    outcome = run_lockstep(
        config,
        observability_a=ObservabilityConfig(metrics=True, trace_path=str(trace_a)),
        observability_b=ObservabilityConfig(metrics=True, trace_path=str(trace_b)),
    )
    assert outcome.result_a.metrics is not None
    assert outcome.result_a.metrics == outcome.result_b.metrics
    assert trace_a.read_bytes() == trace_b.read_bytes()
    assert trace_a.stat().st_size > 0


def test_lockstep_digests_are_reproducible():
    """Same config, fresh simulators: the digest sequence is stable."""
    config = random_config(7, faulting=True)
    first = run_lockstep(config)
    second = run_lockstep(config)
    assert first.digests == second.digests


# ----------------------------------------------------------------------
# Environment transitions between rounds, on every engine
# ----------------------------------------------------------------------


def test_every_engine_honours_seeding_and_relocation():
    """Every registered engine stays in lockstep with the reference, with
    strict monitors on, through an entity seeded between rounds (what
    serve ``arrive`` does: its uid must not be reused by the next
    production) and a target relocation (serve ``relocate``, the
    ``rotating_target`` adversary: Route must follow the new target)."""
    from repro.core.arrays import HAVE_NUMPY

    config = SimulationConfig(
        grid_width=6,
        params=Parameters(l=0.25, rs=0.05, v=0.2),
        rounds=400,
        tid=(5, 5),
        sources=((0, 0),),
        seed=3,
        shards=2,
    )
    names = [n for n in ENGINES if n != "reference"]
    if not HAVE_NUMPY:
        names.remove("vectorized")
    reference = build_simulation(config, engine="reference")
    others = {name: build_simulation(config, engine=name) for name in names}
    sims = [reference, *others.values()]
    try:
        for round_index in range(config.rounds):
            for sim in sims:
                if round_index == 10:
                    sim.system.seed_entity((3, 0), 3.5, 0.5)
                if round_index == 60:
                    sim.system.relocate_target((5, 0))
                sim.step()
            expected = state_digest(reference.system)
            for name, sim in others.items():
                assert state_digest(sim.system) == expected, (
                    f"{name} diverged from reference at round {round_index}"
                )
    finally:
        for sim in sims:
            sim.engine.close()
    assert reference.system.tid == (5, 0)
    assert reference.system.total_consumed > 20


# ----------------------------------------------------------------------
# Engine selection and registry
# ----------------------------------------------------------------------


def test_registry_contents():
    from repro.shard.engine import ShardedEngine
    from repro.netsim.engine import TimedEngine

    assert ENGINES == {
        "reference": ReferenceEngine,
        "incremental": IncrementalEngine,
        "vectorized": VectorizedEngine,
        "timed": TimedEngine,
        "sharded": ShardedEngine,
    }
    assert DEFAULT_ENGINE == "reference"


def test_resolve_precedence():
    env = {"REPRO_ENGINE": "incremental"}
    assert resolve_engine_name(None, {}) == "reference"
    assert resolve_engine_name(None, env) == "incremental"
    assert resolve_engine_name("reference", env) == "reference"


def test_resolve_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown round engine"):
        resolve_engine_name("jacobi", {})
    with pytest.raises(ValueError, match="unknown round engine"):
        resolve_engine_name(None, {"REPRO_ENGINE": "turbo"})


def test_make_engine_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown round engine"):
        make_engine("turbo", None)


def test_config_validates_engine_name():
    with pytest.raises(ValueError, match="unknown engine"):
        corridor_config(engine="turbo")


def test_engine_selection_chain(monkeypatch):
    """Explicit argument > config field > REPRO_ENGINE > default."""
    assert build_simulation(corridor_config()).engine.name == "reference"

    monkeypatch.setenv("REPRO_ENGINE", "incremental")
    assert build_simulation(corridor_config()).engine.name == "incremental"

    config = corridor_config(engine="reference")
    assert build_simulation(config).engine.name == "reference"
    assert build_simulation(config, engine="incremental").engine.name == (
        "incremental"
    )


def test_engine_field_rides_config_dicts():
    config = corridor_config(engine="incremental")
    clone = SimulationConfig.from_dict(config.to_dict())
    assert clone.engine == "incremental"
    assert build_simulation(clone).engine.name == "incremental"


# ----------------------------------------------------------------------
# Incremental-engine structure
# ----------------------------------------------------------------------


def test_quiescent_grid_has_empty_dirty_sets():
    """A drained corridor stops costing anything: both dirty sets empty."""
    config = corridor_config(source_policy="silent", rounds=40)
    simulator = build_simulation(config, engine="incremental")
    simulator.run()
    engine = simulator.engine
    assert engine._route_dirty == set()
    assert engine._signal_pending == set()


def test_invalidate_all_restores_full_sweeps():
    config = corridor_config(source_policy="silent", rounds=40)
    simulator = build_simulation(config, engine="incremental")
    simulator.run()
    simulator.engine.invalidate_all()
    assert simulator.engine._route_dirty == set(simulator.system.cells)
    assert simulator.engine._signal_pending == set(simulator.system.cells)


def test_invalidate_marks_the_neighborhood():
    config = corridor_config(source_policy="silent", rounds=40)
    simulator = build_simulation(config, engine="incremental")
    simulator.run()
    simulator.engine.invalidate((1, 3))
    expected = {(1, 3)} | set(simulator.system.grid.neighbors((1, 3)))
    assert simulator.engine._route_dirty == expected
    assert simulator.engine._signal_pending == expected


def test_cell_observer_chaining_preserved():
    """Installing the engine must not eat a pre-existing observer.

    Uses an on-path cell: the corridor complement is pre-failed, so
    failing an off-path cell would be an idempotent no-op (no event).
    """
    config = corridor_config(rounds=10)
    simulator = build_simulation(config, engine="reference")
    seen = []
    simulator.system.cell_observer = lambda event, cid: seen.append((event, cid))
    IncrementalEngine(simulator.system)
    simulator.system.fail((1, 3))
    simulator.system.recover((1, 3))
    assert seen == [("fail", (1, 3)), ("recover", (1, 3))]


def test_fail_recover_events_fire_only_on_transitions():
    config = corridor_config(rounds=10)
    system = build_simulation(config).system
    events = []
    system.cell_observer = lambda event, cid: events.append(event)
    system.fail((1, 3))
    system.fail((1, 3))  # already failed: no event
    system.recover((1, 3))
    system.recover((1, 3))  # already alive: no event
    assert events == ["fail", "recover"]


# ----------------------------------------------------------------------
# Simulator.run() is single-use (regression)
# ----------------------------------------------------------------------


def test_run_is_single_use():
    """A second run() used to silently append rounds onto the same meters
    and profiler; now it raises."""
    simulator = build_simulation(corridor_config(rounds=20))
    first = simulator.run()
    assert first.rounds == 20
    with pytest.raises(RuntimeError, match="already executed"):
        simulator.run()
    # The explicit continuation path stays available.
    simulator.step()
    assert simulator.summarize().rounds == 21


# ----------------------------------------------------------------------
# Mutation tests: planted dirty-set bugs must be caught
# ----------------------------------------------------------------------


class _DropDistPropagationEngine(IncrementalEngine):
    """MUTANT: neighbors are never told a cell's dist changed, so the
    distance-vector wave stops one hop from wherever faults touched."""

    def _mark_dist_change(self, cid):
        pass


class _DropMembershipPropagationEngine(IncrementalEngine):
    """MUTANT: membership changes (production, transfers) never wake the
    neighbors' Signal phase, so new entities are invisible to NEPrev."""

    def _mark_membership_change(self, cid):
        pass


class _StaleSignalEngine(IncrementalEngine):
    """MUTANT: a cell that granted keeps its ``signal`` without
    re-evaluation — pending cells whose signal is already set are
    skipped ("a granted signal stays valid") — and Move re-reads the
    stale ``signal`` variables instead of the round's grant report. The
    cell *is* legitimately dirty (the dirty-set bookkeeping still queues
    it), the engine just refuses to re-run it. This is the *unsafe* kind
    of dirty-set bug: the stale grant keeps admitting entities into the
    depth-``d`` entry strip without any fresh gap check, violating the
    paper's predicate H."""

    def _signal_phase(self, route_report):
        system = self.system
        pending = self._signal_pending
        for changed in route_report.changed_next:
            pending.update(system.grid.neighbors(changed))
        self._signal_pending = set()
        report = SignalPhaseReport()
        for cid in sorted(pending, key=_row_major):
            state = system.cells[cid]
            if state.failed:
                continue
            if state.signal is not None:
                continue  # MUTANT: skip the legitimately dirty cell
            ne_prev = compute_ne_prev(system.grid, system.cells, cid)
            _signal_step(state, ne_prev, system.params, system.token_policy, report)
            if ne_prev:
                self._signal_pending.add(cid)
        return report

    def _move_phase(self, signal_report):
        system = self.system
        report = apply_moves(
            system.grid,
            system.cells,
            system.params,
            system.consumes,
            collect_movers(system.cells),
        )
        for transfer in report.transfers:
            self._mark_membership_change(transfer.src)
            if not transfer.consumed:
                self._mark_membership_change(transfer.dst)
        return report


@pytest.mark.parametrize(
    "mutant",
    [_DropDistPropagationEngine, _DropMembershipPropagationEngine],
    ids=["drop-dist-rule", "drop-membership-rule"],
)
def test_harness_catches_dropped_dirty_rules(monkeypatch, mutant):
    monkeypatch.setitem(engine_module.ENGINES, "incremental", mutant)
    with pytest.raises(DifferentialMismatch):
        run_lockstep(corridor_config())


def test_monitors_catch_stale_grant_mutant(monkeypatch):
    """Run the unsafe mutant *alone*: the strict monitor suite must stop
    it (predicate H / Theorem 5), independent of any reference run."""
    monkeypatch.setitem(engine_module.ENGINES, "incremental", _StaleSignalEngine)
    simulator = build_simulation(corridor_config(), engine="incremental")
    with pytest.raises(MonitorViolation):
        simulator.run()


def test_harness_catches_stale_grant_mutant(monkeypatch):
    """The same mutant under the harness: either the per-round digest
    diverges or a monitor fires — the planted bug cannot pass."""
    monkeypatch.setitem(engine_module.ENGINES, "incremental", _StaleSignalEngine)
    with pytest.raises((DifferentialMismatch, MonitorViolation)):
        run_lockstep(corridor_config())


def test_unmutated_registry_after_mutation_tests():
    """monkeypatch.setitem restored the real engine (paranoia check)."""
    assert ENGINES["incremental"] is IncrementalEngine
