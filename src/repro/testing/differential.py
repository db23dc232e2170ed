"""Differential lockstep harness: proving round-engine equivalence.

The round engines (:mod:`repro.sim.engine`) promise to be
*observationally identical*: the full-sweep reference and the dirty-set
incremental engine must produce the same state, reports, metrics,
monitor verdicts, and protocol-event traces for any configuration. This
module is the machinery that checks the promise. It runs the **same**
:class:`~repro.sim.config.SimulationConfig` under two engines in
lockstep and asserts, after every round:

* identical canonical state — every cell variable, entity positions at
  *exact* float equality, the RNG stream state, uid counters and the
  produced/consumed totals;
* identical phase reports, including list ordering (the observability
  layer derives events from them).

At the end of the horizon it further compares the deterministic result
records (:meth:`~repro.sim.results.SimulationResult.simulation_outputs`,
which embeds the metrics registry when observability is enabled) and the
monitor verdict lists. Trace files are written by the simulators
themselves when an :class:`~repro.obs.instrument.ObservabilityConfig`
with a ``trace_path`` is supplied; callers compare them byte-for-byte.

:func:`random_config` generates seeded, randomized (optionally faulting)
configurations so the test matrix in
``tests/test_engine_differential.py`` can sweep wide without
hand-written scenarios. This is library code (it also powers the
``differential`` fuzz oracle in :mod:`repro.fuzz.oracles`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.params import Parameters
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction
from repro.obs.instrument import ObservabilityConfig
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator, build_simulation


class DifferentialMismatch(AssertionError):
    """Two engines diverged: the lockstep harness found a difference."""

    def __init__(self, round_index: int, aspect: str, detail: str):
        super().__init__(
            f"engines diverged at round {round_index} ({aspect}): {detail}"
        )
        self.round_index = round_index
        self.aspect = aspect
        self.detail = detail


# ----------------------------------------------------------------------
# Canonical forms
# ----------------------------------------------------------------------


def _canonical_entity(entity) -> Tuple:
    # The commodity tag is None for single-flow entities, so the tuple
    # shape stays comparable across both system kinds.
    return (
        entity.uid,
        entity.x,
        entity.y,
        entity.birth_round,
        entity.side,
        getattr(entity, "commodity_name", None),
    )


def canonical_state(system) -> Tuple:
    """The full system state as one comparable tuple.

    Covers every cell variable (members with exact float positions,
    ``next``/``ne_prev``/``dist``/``token``/``signal``/``failed``), the
    round index, the uid counter, the produced/consumed totals, and the
    source RNG's internal state — so two equal canonical states really
    mean the systems are indistinguishable, now and in every future
    round.
    """
    cells = []
    for cid in sorted(system.cells):
        state = system.cells[cid]
        entry = (
            cid,
            tuple(
                _canonical_entity(state.members[uid])
                for uid in sorted(state.members)
            ),
            state.next_id,
            tuple(sorted(state.ne_prev)),
            state.dist,
            state.token,
            state.signal,
            state.failed,
        )
        # Multi-commodity cells extend the tuple with their per-commodity
        # routing tables; single-flow cells have neither attribute.
        dists = getattr(state, "dists", None)
        if dists is not None:
            entry = entry + (
                tuple(sorted(dists.items())),
                tuple(sorted(state.nexts.items())),
            )
        cells.append(entry)
    extras: Tuple = ()
    if getattr(system, "is_multiflow", False):
        extras = (
            tuple(sorted(system.produced_by_commodity.items())),
            tuple(sorted(system.consumed_by_commodity.items())),
        )
    return (
        tuple(cells),
        system.round_index,
        system._next_uid,
        system.total_produced,
        system.total_consumed,
        system.rng.getstate(),
    ) + extras


def state_digest(system) -> str:
    """Stable hex digest of :func:`canonical_state`.

    ``repr`` round-trips Python floats exactly, so equal digests mean
    bit-equal state (``inf`` included).
    """
    canonical = canonical_state(system)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


def canonical_report(report) -> dict:
    """A round report as named comparable parts (ordering preserved).

    ``granted`` is a dict (insertion-ordered identically by both
    engines); it is canonicalized sorted since dict equality ignores
    order anyway and the observability layer sorts before emitting.
    """
    return {
        "round_index": report.round_index,
        "route.changed_dist": tuple(report.route.changed_dist),
        "route.changed_next": tuple(report.route.changed_next),
        "signal.granted": tuple(sorted(report.signal.granted.items())),
        "signal.blocked": tuple(report.signal.blocked),
        "signal.block_reasons": tuple(
            sorted(getattr(report.signal, "block_reasons", {}).items())
        ),
        "signal.rotated": tuple(report.signal.rotated),
        "move.moved_cells": tuple(report.move.moved_cells),
        "move.transfers": tuple(report.move.transfers),
        "move.consumed": tuple(_canonical_entity(e) for e in report.move.consumed),
        "produced": tuple(_canonical_entity(e) for e in report.produced),
    }


def _first_state_diff(state_a: Tuple, state_b: Tuple) -> str:
    for cell_a, cell_b in zip(state_a[0], state_b[0]):
        if cell_a != cell_b:
            return f"cell {cell_a[0]}: {cell_a!r} != {cell_b!r}"
    names = ("round_index", "next_uid", "total_produced", "total_consumed")
    for name, value_a, value_b in zip(names, state_a[1:5], state_b[1:5]):
        if value_a != value_b:
            return f"{name}: {value_a!r} != {value_b!r}"
    if state_a[5] != state_b[5]:
        return "source RNG streams diverged"
    return "states differ (no field-level diff found)"


# ----------------------------------------------------------------------
# The lockstep runner
# ----------------------------------------------------------------------


@dataclass
class LockstepOutcome:
    """What a clean (divergence-free) lockstep run produced."""

    config: SimulationConfig
    digests: List[str]
    """Per-round state digests — identical across both engines."""

    result_a: SimulationResult
    result_b: SimulationResult


def run_lockstep(
    config: SimulationConfig,
    engine_a: str = "reference",
    engine_b: str = "incremental",
    observability_a: Optional[ObservabilityConfig] = None,
    observability_b: Optional[ObservabilityConfig] = None,
    config_b: Optional[SimulationConfig] = None,
) -> LockstepOutcome:
    """Run ``config`` under both engines, comparing after every round.

    Raises :class:`DifferentialMismatch` at the *first* divergence with
    the round index and the offending aspect, so a failure pinpoints the
    exact protocol step where the engines disagree. Both simulators are
    built from the same config object (the engine is an override, not a
    config edit), so their result records embed identical config dicts.

    ``config_b`` runs side B from a *different* config — used to prove
    shard-count invariance, where only engine-tuning fields (``shards``)
    may differ. The embedded config dicts then legitimately differ, so
    the final result comparison excludes them; everything else (state,
    reports, verdicts, metrics) must still match exactly.
    """
    sim_a = build_simulation(config, observability=observability_a, engine=engine_a)
    sim_b = build_simulation(
        config_b if config_b is not None else config,
        observability=observability_b,
        engine=engine_b,
    )
    digests: List[str] = []
    for round_index in range(config.rounds):
        report_a = sim_a.step()
        report_b = sim_b.step()
        parts_a = canonical_report(report_a)
        parts_b = canonical_report(report_b)
        if parts_a != parts_b:
            aspect = next(k for k in parts_a if parts_a[k] != parts_b[k])
            raise DifferentialMismatch(
                round_index,
                aspect,
                f"{engine_a}={parts_a[aspect]!r} vs {engine_b}={parts_b[aspect]!r}",
            )
        state_a = canonical_state(sim_a.system)
        state_b = canonical_state(sim_b.system)
        if state_a != state_b:
            raise DifferentialMismatch(
                round_index, "state", _first_state_diff(state_a, state_b)
            )
        digests.append(hashlib.sha256(repr(state_a).encode("utf-8")).hexdigest())

    verdicts_a = _monitor_verdicts(sim_a)
    verdicts_b = _monitor_verdicts(sim_b)
    if verdicts_a != verdicts_b:
        raise DifferentialMismatch(
            config.rounds,
            "monitor verdicts",
            f"{engine_a}={verdicts_a!r} vs {engine_b}={verdicts_b!r}",
        )
    result_a = sim_a.summarize()
    result_b = sim_b.summarize()
    outputs_a = result_a.simulation_outputs()
    outputs_b = result_b.simulation_outputs()
    if config_b is not None:
        outputs_a.pop("config", None)
        outputs_b.pop("config", None)
    if outputs_a != outputs_b:
        fields = sorted(
            key
            for key in set(outputs_a) | set(outputs_b)
            if outputs_a.get(key) != outputs_b.get(key)
        )
        raise DifferentialMismatch(
            config.rounds, "result", f"fields differ: {fields}"
        )
    return LockstepOutcome(
        config=config, digests=digests, result_a=result_a, result_b=result_b
    )


def _monitor_verdicts(simulator: Simulator):
    if simulator.monitors is None:
        return None
    return [
        (v.round_index, v.property_name, v.detail)
        for v in simulator.monitors.violations
    ]


# ----------------------------------------------------------------------
# Randomized configuration generation
# ----------------------------------------------------------------------


def random_config(seed: int, faulting: bool = True) -> SimulationConfig:
    """A seeded, randomized configuration for the differential matrix.

    Varies grid size (4-7), corridor shape (straight or turning) versus
    free-form workloads (random target + 1-3 sources), protocol
    parameters, source policies, and horizon; with ``faulting`` (the
    default) a Bernoulli fail/recover model churns the grid, which is
    where dirty-set bookkeeping earns its keep. The generated config
    also uses ``seed`` as its own RNG seed, so every scenario is fully
    reproducible from one integer.
    """
    rng = random.Random(seed ^ 0x5EED)
    n = rng.randint(4, 7)
    params = Parameters(
        l=0.25,
        rs=rng.choice([0.03, 0.05, 0.08]),
        v=rng.choice([0.1, 0.15, 0.2]),
    )
    rounds = rng.randint(40, 80)
    source_policy = rng.choice(
        [
            "eager",
            "eager",
            f"bernoulli:{rng.choice(['0.3', '0.5', '0.8'])}",
            f"capped:{rng.randint(3, 12)}",
        ]
    )
    fault = (
        FaultSpec(pf=rng.uniform(0.01, 0.08), pr=rng.uniform(0.05, 0.3))
        if faulting
        else FaultSpec()
    )
    if rng.random() < 0.7:  # corridor workload
        turns = rng.choice([0, 0, 1, 2])
        if turns:
            path = turns_path((0, 0), n, turns)
        else:
            path = straight_path((rng.randrange(n), 0), Direction.NORTH, n)
        return SimulationConfig(
            grid_width=n,
            params=params,
            rounds=rounds,
            path=path.cells,
            source_policy=source_policy,
            fault=fault,
            seed=seed,
            # A recovery model would resurrect a failed complement, which
            # config validation rejects; fault-free corridors keep the
            # pre-failed complement half the time (a quiescent-heavy
            # grid, the incremental engine's best case).
            fail_complement=(not faulting) and rng.random() < 0.5,
        )
    cells = [(i, j) for i in range(n) for j in range(n)]
    tid = rng.choice(cells)
    others = [cell for cell in cells if cell != tid]
    sources = tuple(rng.sample(others, rng.randint(1, 3)))
    return SimulationConfig(
        grid_width=n,
        params=params,
        rounds=rounds,
        tid=tid,
        sources=sources,
        source_policy=source_policy,
        fault=fault,
        seed=seed,
    )


def random_multiflow_config(
    seed: int, faulting: bool = True
) -> SimulationConfig:
    """A seeded, randomized multi-commodity configuration.

    The multi-commodity leg of the lockstep matrix: 2-3 commodities
    with randomly placed distinct targets and 1-2 sources each, a
    sampled workload profile, every token policy, and (by default)
    Bernoulli fault churn with protected targets — recovery of a
    commodity target resets its own dist-0 row, which is exactly the
    bookkeeping the incremental engine's dirty sets must get right.
    """
    from repro.multiflow.commodities import Commodity
    from repro.multiflow.workload import WORKLOAD_PROFILES

    rng = random.Random(seed ^ 0x310F)
    n = rng.randint(4, 6)
    params = Parameters(
        l=0.25,
        rs=rng.choice([0.03, 0.05, 0.08]),
        v=rng.choice([0.1, 0.15, 0.2]),
    )
    rounds = rng.randint(40, 80)
    cells = [(i, j) for i in range(n) for j in range(n)]
    count = rng.randint(2, 3)
    targets = rng.sample(cells, count)
    commodities = []
    for k, target in enumerate(targets):
        others = [cell for cell in cells if cell != target]
        sources = tuple(rng.sample(others, rng.randint(1, 2)))
        commodities.append(
            Commodity(name=f"c{k}", target=target, sources=sources)
        )
    fault = (
        FaultSpec(
            pf=rng.uniform(0.01, 0.06),
            pr=rng.uniform(0.08, 0.3),
            protect_target=True,
        )
        if faulting
        else FaultSpec()
    )
    return SimulationConfig(
        grid_width=n,
        params=params,
        rounds=rounds,
        commodities=tuple(commodities),
        workload=rng.choice(sorted(WORKLOAD_PROFILES)),
        token_policy=rng.choice(["roundrobin", "roundrobin", "random", "sticky"]),
        fault=fault,
        seed=seed,
    )
