"""The oracle registry: uniform checks a scenario must pass.

Every oracle implements one question — "did this scenario break a
promise?" — over the same :class:`~repro.fuzz.generator.Scenario` input
and the same structured :class:`Violation` output, so the campaign
runner, the shrinker, and the replay CLI can treat them uniformly. The
oracles lift the repo's existing verification layers rather than
re-implement them:

========== ==========================================================
oracle      promise checked
========== ==========================================================
monitors    the proved properties (Safe, Invariants 1-2, predicate-H,
            Lemma 4) hold on every round
differential the reference, incremental, and vectorized engines are
            observationally identical on this scenario
determinism two builds of the same config produce byte-identical
            per-round state digests and result records
conservation entities are never created or destroyed outside
            produce/consume, on every round
replay      a recorded trace passes offline verification and re-derives
            the run's throughput exactly
netsim      advert loss and latency jitter degrade throughput only —
            never safety, containment, disjointness, or conservation
shard-invariance
            the sharded engine is district-count invariant: 1 shard
            and 4 shards produce identical runs
stabilization-bound
            routing re-stabilizes within the Lemma 6 O(N^2) horizon
            after the adversary's last scripted perturbation
token-fairness
            roundrobin token rotation under starvation pressure never
            parks the token on a served member while others wait
async-equivalence
            a timed-round run with jitter <= one period is
            state-identical to the synchronous reference, per round
========== ==========================================================

Determinism contract: ``check(scenario)`` is a pure function of the
scenario — violations come back in a canonical order with canonical
details, so campaign summaries are byte-stable and shrunk repros replay
identically. :data:`ORACLES` is the registry the docs table
(``docs/fuzzing.md``) is CI-diffed against.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.arrays import HAVE_NUMPY
from repro.core.system import System
from repro.fuzz.generator import Scenario
from repro.grid.topology import Grid
from repro.monitors.invariants import check_containment, check_disjoint_membership
from repro.monitors.recorder import MonitorViolation
from repro.monitors.safety import check_safe
from repro.netsim.delay import DelayModel, LossyDelay, UniformDelay
from repro.netsim.engine import TimedEngine
from repro.sim.seeding import derive_rng
from repro.sim.simulator import (
    _make_source_policy,
    _make_token_policy,
    build_simulation,
)
from repro.sim.trace import TraceRecorder, replay_throughput, verify_trace
from repro.testing.differential import DifferentialMismatch, run_lockstep, state_digest


@dataclass(frozen=True)
class Violation:
    """One structured oracle finding (JSON-ready, canonically ordered)."""

    oracle: str
    property_name: str
    detail: str
    round_index: Optional[int] = None

    def to_dict(self) -> Dict:
        """JSON-ready form (repro artifacts); inverse of :meth:`from_dict`."""
        return {
            "oracle": self.oracle,
            "property": self.property_name,
            "detail": self.detail,
            "round": self.round_index,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Violation":
        return cls(
            oracle=data["oracle"],
            property_name=data["property"],
            detail=data["detail"],
            round_index=data.get("round"),
        )


class Oracle:
    """Interface: one uniform scenario check.

    Subclasses set ``name`` (the registry key, referenced by CLI
    ``--oracles`` and the docs table) and ``description`` (one line,
    diffed against ``docs/fuzzing.md``), and implement :meth:`check` as
    a pure function of the scenario.
    """

    name: str = ""
    description: str = ""

    def check(self, scenario: Scenario) -> List[Violation]:
        """Run the scenario; return every violation found ([] = clean)."""
        raise NotImplementedError


class MonitorOracle(Oracle):
    """The proved properties, checked live on every round."""

    name = "monitors"
    description = (
        "Safe, Invariants 1-2, predicate-H and Lemma 4 hold on every round"
    )

    def check(self, scenario: Scenario) -> List[Violation]:
        """Run with lenient monitors; lift their violations verbatim."""
        sim = build_simulation(scenario.config)
        if sim.monitors is None:  # pragma: no cover - generator always monitors
            return []
        sim.monitors.strict = False  # record, don't raise: we collect all
        sim.run()
        return [
            Violation(self.name, v.property_name, v.detail, v.round_index)
            for v in sim.monitors.violations
        ]


class DifferentialOracle(Oracle):
    """3-way engine lockstep over the scenario's config: the reference
    is run against the incremental and the vectorized engine in turn."""

    name = "differential"
    description = (
        "reference, incremental, and vectorized engines produce identical "
        "state, reports, and results"
    )

    #: The non-reference engines checked against the reference. The
    #: vectorized leg needs numpy (a soft dependency); without it the
    #: oracle still proves the incremental leg. Multi-commodity
    #: scenarios only pin the engines that support them, so their
    #: lockstep matrix is reference vs incremental.
    def _legs(self, scenario: Scenario) -> List[str]:
        legs = ["incremental"]
        if HAVE_NUMPY and not scenario.config.commodities:
            legs.append("vectorized")
        return legs

    def check(self, scenario: Scenario) -> List[Violation]:
        """Lockstep each engine pair; report the first divergence."""
        # Monitors off: a safety bug shared by both engines is the
        # monitors oracle's finding; strict monitors would abort the
        # lockstep before the comparison that is this oracle's job.
        config = replace(scenario.config, monitors=False)
        for engine_b in self._legs(scenario):
            try:
                run_lockstep(config, engine_b=engine_b)
            except DifferentialMismatch as mismatch:
                return [
                    Violation(
                        self.name,
                        mismatch.aspect,
                        f"reference vs {engine_b}: {mismatch.detail}",
                        mismatch.round_index,
                    )
                ]
            except MonitorViolation as failure:  # pragma: no cover - defensive
                v = failure.violation
                return [
                    Violation(self.name, v.property_name, v.detail, v.round_index)
                ]
        return []


class DeterminismOracle(Oracle):
    """Two builds of the same config must be byte-identical."""

    name = "determinism"
    description = (
        "rebuilding and rerunning the same config reproduces identical "
        "per-round digests and results"
    )

    def check(self, scenario: Scenario) -> List[Violation]:
        """Build twice, step in parallel; report the first digest split."""
        config = replace(scenario.config, monitors=False)
        sims = (build_simulation(config), build_simulation(config))
        for round_index in range(config.rounds):
            digests = []
            for sim in sims:
                sim.step()
                digests.append(state_digest(sim.system))
            if digests[0] != digests[1]:
                return [
                    Violation(
                        self.name,
                        "state digest",
                        f"run 1 {digests[0][:16]} != run 2 {digests[1][:16]}",
                        round_index,
                    )
                ]
        outputs = [sim.summarize().simulation_outputs() for sim in sims]
        if outputs[0] != outputs[1]:
            fields = sorted(
                key
                for key in set(outputs[0]) | set(outputs[1])
                if outputs[0].get(key) != outputs[1].get(key)
            )
            return [
                Violation(
                    self.name,
                    "result record",
                    f"fields differ across reruns: {fields}",
                    config.rounds,
                )
            ]
        return []


class ConservationOracle(Oracle):
    """No entity is created or destroyed outside produce/consume."""

    name = "conservation"
    description = (
        "total produced equals total consumed plus in-flight, every round"
    )

    def check(self, scenario: Scenario) -> List[Violation]:
        """Audit produced == consumed + in-flight after every round.

        Multi-commodity runs are additionally audited per commodity:
        each commodity's ledger must balance on its own — a cross-tagged
        transfer would keep the totals intact while corrupting two
        per-commodity ledgers at once.
        """
        config = replace(scenario.config, monitors=False)
        sim = build_simulation(config)
        violations: List[Violation] = []
        for round_index in range(config.rounds):
            sim.step()
            system = sim.system
            balance = system.total_consumed + system.entity_count()
            if system.total_produced != balance:
                violations.append(
                    Violation(
                        self.name,
                        "entity conservation",
                        f"produced {system.total_produced} != consumed "
                        f"{system.total_consumed} + in-flight "
                        f"{system.entity_count()}",
                        round_index,
                    )
                )
            if getattr(system, "is_multiflow", False):
                in_flight = system.in_flight_by_commodity()
                for name in system.table.names():
                    produced = system.produced_by_commodity[name]
                    consumed = system.consumed_by_commodity[name]
                    if produced != consumed + in_flight[name]:
                        violations.append(
                            Violation(
                                self.name,
                                "commodity conservation",
                                f"{name}: produced {produced} != consumed "
                                f"{consumed} + in-flight {in_flight[name]}",
                                round_index,
                            )
                        )
        return violations


class ReplayOracle(Oracle):
    """Recorded traces verify offline and re-derive the metrics."""

    name = "replay"
    description = (
        "the recorded trace passes offline verification and replays the "
        "run's exact throughput"
    )

    def check(self, scenario: Scenario) -> List[Violation]:
        """Record a trace, verify it offline, replay the throughput."""
        if scenario.config.commodities:
            # The trace format records the single-flow per-cell routing
            # scalars; multi-commodity runs are covered by the
            # differential and conservation oracles instead.
            return []
        config = replace(scenario.config, monitors=False)
        sim = build_simulation(config)
        recorder = TraceRecorder.for_system(sim.system)
        for _ in range(config.rounds):
            report = sim.step()
            recorder.observe(sim.system, report)
        result = sim.summarize()
        violations: List[Violation] = []
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            trace_path = recorder.save(Path(tmp) / "trace.jsonl")
            for v in verify_trace(trace_path):
                violations.append(
                    Violation(self.name, v.property_name, v.detail, v.round_index)
                )
            replayed = replay_throughput(trace_path, warmup=config.warmup)
            if replayed != result.throughput:
                violations.append(
                    Violation(
                        self.name,
                        "replayed throughput",
                        f"trace replays {replayed!r}, run measured "
                        f"{result.throughput!r}",
                        config.rounds,
                    )
                )
        return violations


class NetworkOracle(Oracle):
    """Loss/jitter may cost throughput, never the proved properties."""

    name = "netsim"
    description = (
        "advert loss and latency jitter never break safety, invariants, "
        "or conservation"
    )

    def check(self, scenario: Scenario) -> List[Violation]:
        """Drive the lossy and jittery network legs the net spec enables."""
        if not scenario.net.enabled or scenario.config.commodities:
            # The generator never enables the network legs for
            # multi-commodity scenarios (the message-passing runtime
            # models the single-flow advert protocol); the guard also
            # covers hand-built corpus entries.
            return []
        violations: List[Violation] = []
        if scenario.net.drop > 0.0:
            violations.extend(self._lossy_leg(scenario))
        if scenario.net.jitter > 0.0:
            violations.extend(self._jitter_leg(scenario))
        return violations

    # -- construction ------------------------------------------------

    @staticmethod
    def _engine(
        scenario: Scenario, delay_model: DelayModel, delay_stream: str
    ) -> TimedEngine:
        """A timed engine on a ``System`` mirroring the config's workload."""
        config = scenario.config
        grid = Grid(config.grid_width, config.grid_height)
        if config.path is not None:
            tid = config.path[-1]
            source_ids = (config.path[0],)
            failed = [cid for cid in grid.cells() if cid not in set(config.path)]
        else:
            tid = config.tid
            source_ids = config.sources
            failed = []
        system = System(
            grid=grid,
            params=config.params,
            tid=tid,
            sources={
                cid: _make_source_policy(config.source_policy)
                for cid in source_ids
            },
            token_policy=_make_token_policy(config.token_policy, config.seed),
            rng=derive_rng(config.seed, "net-sources"),
        )
        for cid in failed:
            system.fail(cid)
        return TimedEngine(
            system,
            delay_model=delay_model,
            delay_rng=derive_rng(config.seed, delay_stream),
        )

    def _lossy_leg(self, scenario: Scenario) -> List[Violation]:
        engine = self._engine(scenario, LossyDelay(scenario.net.drop), "net-loss")
        return self._degradation_rounds(scenario, engine, "lossy")

    def _jitter_leg(self, scenario: Scenario) -> List[Violation]:
        engine = self._engine(
            scenario, UniformDelay(0.0, scenario.net.jitter), "net-delay"
        )
        return self._degradation_rounds(scenario, engine, "jitter")

    def _degradation_rounds(
        self, scenario: Scenario, engine: TimedEngine, leg: str
    ) -> List[Violation]:
        violations: List[Violation] = []
        system = engine.system

        def record(round_index: int, name: str, detail: str) -> None:
            violations.append(
                Violation(self.name, f"{name} ({leg})", detail, round_index)
            )

        for round_index in range(scenario.net.rounds):
            engine.step()
            for finding in check_safe(system):
                record(round_index, "Safe", str(finding))
            for finding in check_containment(system):
                record(round_index, "Invariant 1", str(finding))
            for uid in check_disjoint_membership(system):
                record(round_index, "Invariant 2", f"entity {uid} in multiple cells")
            balance = system.total_consumed + system.entity_count()
            if system.total_produced != balance:
                record(
                    round_index,
                    "conservation",
                    f"produced {system.total_produced} != consumed "
                    f"{system.total_consumed} + in-flight {system.entity_count()}",
                )
        return violations


class ShardInvarianceOracle(Oracle):
    """District-count invariance of the multi-process sharded engine.

    Lockstep-runs the scenario under the sharded engine twice — one
    district versus four (clamped to the grid height) — comparing
    canonical state and reports after every round and the result records
    at the end. The configs differ only in the ``shards`` tuning field,
    so :func:`run_lockstep`'s ``config_b`` mode excludes the embedded
    config dicts from the final comparison and everything else must
    match exactly.
    """

    name = "shard-invariance"
    description = (
        "the sharded engine is district-count invariant: 1 shard and 4 "
        "shards produce identical runs"
    )

    #: Horizon cap: every sharded round costs three inter-process
    #: exchanges per district, so long scenarios are trimmed — shard
    #: merge bugs are order-of-operations bugs and show up early.
    max_rounds = 40

    def check(self, scenario: Scenario) -> List[Violation]:
        """Lockstep 1-shard vs 4-shard; report the first divergence."""
        config = scenario.config
        if config.commodities:
            # The sharded engine does not support multi-commodity
            # systems (config validation rejects the combination).
            return []
        if config.token_policy == "random":
            # Invalid for sharded runs by construction (the random
            # policy's shared RNG stream cannot be split across district
            # processes; config validation rejects the combination).
            return []
        if config.adversary is not None or config.engine == "timed":
            # ``replace(engine="sharded")`` would fail validation:
            # adversary classes pin their own engine matrix and
            # ``jitter > 0`` requires the timed engine. Shard invariance
            # stays proven on the standard generator arm; skipping here
            # keeps every shrink candidate buildable.
            return []
        rounds = min(config.rounds, self.max_rounds)
        if config.warmup >= rounds:  # keep warmup < rounds valid
            rounds = config.rounds
        height = config.grid_height or config.grid_width
        config_a = replace(
            config, monitors=False, engine="sharded", shards=1, rounds=rounds
        )
        config_b = replace(config_a, shards=min(4, height))
        try:
            run_lockstep(
                config_a,
                engine_a="sharded",
                engine_b="sharded",
                config_b=config_b,
            )
        except DifferentialMismatch as mismatch:
            return [
                Violation(
                    self.name,
                    mismatch.aspect,
                    f"1 shard vs {config_b.shards}: {mismatch.detail}",
                    mismatch.round_index,
                )
            ]
        return []


class StabilizationBoundOracle(Oracle):
    """The Lemma 6 re-stabilization bound, after the adversary's last blow.

    Adversarial scenarios script a known perturbation schedule, so the
    oracle knows exactly when the dust settles: it steps the run to one
    round past :attr:`CompiledAdversary.last_perturbation_round`, then
    gives routing ``grid.size + 2`` further rounds (the Lemma 6
    ``O(N^2)`` self-stabilization horizon, N = cell count, plus the
    two-round advert pipeline) to re-converge to the BFS ground truth of
    the surviving topology. Classes with no scripted events (token
    starvation) are checked from round 0 — cold-start stabilization
    under the same bound.
    """

    name = "stabilization-bound"
    description = (
        "routing re-stabilizes within grid.size + 2 rounds of the "
        "adversary's last scripted perturbation (Lemma 6)"
    )

    def check(self, scenario: Scenario) -> List[Violation]:
        """Step past the last perturbation; demand convergence in bound."""
        config = scenario.config
        if config.adversary is None or config.commodities:
            return []
        if config.fault.enabled:
            # Bernoulli churn on top of the script means there is no
            # "last perturbation" to stabilize from. The generator's
            # adversary arm never enables it; hand-built configs that do
            # are covered by the monitors oracle alone.
            return []
        from repro.adversary.scripts import compile_adversary
        from repro.monitors.progress import routing_matches_ground_truth

        compiled = compile_adversary(config)
        settle_from = compiled.last_perturbation_round + 1
        budget = Grid(config.grid_width, config.grid_height).size + 2
        sim = build_simulation(replace(config, monitors=False))
        try:
            for _ in range(settle_from):
                sim.step()
            for _ in range(budget):
                if routing_matches_ground_truth(sim.system):
                    return []
                sim.step()
            if routing_matches_ground_truth(sim.system):
                return []
            return [
                Violation(
                    self.name,
                    "stabilization bound",
                    f"routing not re-stabilized within {budget} rounds "
                    f"of the last perturbation (round "
                    f"{compiled.last_perturbation_round}) of adversary "
                    f"{config.adversary!r}",
                    settle_from + budget,
                )
            ]
        finally:
            sim.engine.close()


class TokenFairnessOracle(Oracle):
    """Round-robin token fairness under starvation pressure (Lemma 9).

    Two checks over every signal grant:

    * **parked token** — after a cell grants neighbor ``g``, the token
      must rotate off ``g`` whenever ``NEPrev`` offers an alternative
      (the fairness step of Lemma 9); a token still on ``g`` post-round
      with two or more competitors is a rotation bug, caught the round
      it happens.
    * **starvation window** — a neighbor continuously competing in
      ``NEPrev`` may watch at most :attr:`starvation_window` consecutive
      grants go elsewhere; round-robin over at most four lattice
      neighbors cycles in four, so the window only trips on genuinely
      stuck rotation that the parked check's exact form might miss.
    """

    name = "token-fairness"
    description = (
        "roundrobin token rotation never parks on a just-served member "
        "or starves a waiting competitor"
    )

    #: Consecutive grants a continuously-competing neighbor may lose
    #: before the oracle calls starvation. Honest round-robin over the
    #: <= 4 lattice neighbors serves everyone within 4 grants; 8 leaves
    #: slack for token drops on membership churn.
    starvation_window = 8

    def check(self, scenario: Scenario) -> List[Violation]:
        """Audit every grant's rotation and each competitor's wait."""
        config = scenario.config
        if config.token_policy != "roundrobin" or config.commodities:
            return []
        sim = build_simulation(replace(config, monitors=False))
        violations: List[Violation] = []
        # (cell, competitor) -> consecutive grants lost while the
        # competitor stayed in the cell's NEPrev.
        waits: Dict[tuple, int] = {}
        try:
            for round_index in range(config.rounds):
                report = sim.step()
                for cid, granted in sorted(report.signal.granted.items()):
                    state = sim.system.cells[cid]
                    competitors = state.ne_prev
                    if state.token == granted and len(competitors) >= 2:
                        violations.append(
                            Violation(
                                self.name,
                                "parked token",
                                f"cell {cid} granted {granted} but the "
                                f"token did not rotate off it despite "
                                f"{len(competitors)} competitors",
                                round_index,
                            )
                        )
                    for other in sorted(competitors):
                        key = (cid, other)
                        if other == granted:
                            waits[key] = 0
                            continue
                        waits[key] = waits.get(key, 0) + 1
                        if waits[key] == self.starvation_window:
                            violations.append(
                                Violation(
                                    self.name,
                                    "starvation",
                                    f"cell {cid} granted "
                                    f"{self.starvation_window} times in a "
                                    f"row while competitor {other} waited "
                                    f"in NEPrev",
                                    round_index,
                                )
                            )
                    # A competitor that left NEPrev restarts its wait.
                    for key in [k for k in waits if k[0] == cid]:
                        if key[1] not in competitors:
                            del waits[key]
        finally:
            sim.engine.close()
        return violations


class AsyncEquivalenceOracle(Oracle):
    """The timed-rounds bisimulation theorem, checked per round.

    When every message's latency is at most one round period, the timed
    asynchronous execution is *state-identical* to the synchronous
    reference (no advert arrives after the round that needs it). The
    oracle runs the scenario's timed config and a synchronous twin in
    lockstep and compares :func:`state_digest` after every round; it
    also demands ``late_adverts == 0`` — a single stale advert proves
    the latency bound was violated.
    """

    name = "async-equivalence"
    description = (
        "a timed-round run with jitter <= one period is state-identical "
        "to the synchronous reference, every round"
    )

    def check(self, scenario: Scenario) -> List[Violation]:
        """Lockstep timed vs reference; report the first digest split."""
        config = scenario.config
        if config.engine != "timed" or config.jitter > 1.0:
            # Above one period the bisimulation premise fails by design
            # (the generator caps jitter at 1.0; hand-built configs
            # beyond it are covered by monitors + conservation).
            return []
        sim_t = build_simulation(replace(config, monitors=False))
        # The synchronous twin: same seed, workload, and fault schedule
        # on the reference engine. The adversary field cannot ride along
        # (async_jitter's validation pins engine="timed"), so the
        # compiled schedule is grafted onto the twin's injector instead.
        sync_config = replace(
            config, monitors=False, engine=None, jitter=0.0, adversary=None
        )
        sim_s = build_simulation(sync_config, engine="reference")
        if config.adversary is not None:
            from repro.adversary.scripts import compile_adversary

            compiled = compile_adversary(config)
            sim_s.injector.splice(compiled.events, compiled.relocations)
        violations: List[Violation] = []
        try:
            for round_index in range(config.rounds):
                sim_t.step()
                sim_s.step()
                digest_t = state_digest(sim_t.system)
                digest_s = state_digest(sim_s.system)
                if digest_t != digest_s:
                    violations.append(
                        Violation(
                            self.name,
                            "state digest",
                            f"timed {digest_t[:16]} != sync "
                            f"{digest_s[:16]} at jitter={config.jitter}",
                            round_index,
                        )
                    )
                    break
            late = getattr(sim_t.engine, "late_adverts", 0)
            if not violations and late:
                violations.append(
                    Violation(
                        self.name,
                        "late adverts",
                        f"{late} adverts arrived stale despite "
                        f"jitter={config.jitter} <= 1 period",
                        config.rounds,
                    )
                )
        finally:
            sim_t.engine.close()
            sim_s.engine.close()
        return violations


#: The oracle registry, in canonical (cheap-to-expensive-ish) check
#: order. Keys are the CLI/docs names; ``docs/fuzzing.md`` carries a
#: table CI-diffed against this dict by ``tests/test_docs.py``.
ORACLES: Dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        MonitorOracle(),
        DifferentialOracle(),
        DeterminismOracle(),
        ConservationOracle(),
        ReplayOracle(),
        NetworkOracle(),
        ShardInvarianceOracle(),
        StabilizationBoundOracle(),
        TokenFairnessOracle(),
        AsyncEquivalenceOracle(),
    )
}


def resolve_oracles(names: Optional[Sequence[str]] = None) -> List[Oracle]:
    """Registry lookups in canonical registry order (None = all)."""
    if names is None:
        return list(ORACLES.values())
    unknown = sorted(set(names) - set(ORACLES))
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {unknown}; available: {sorted(ORACLES)}"
        )
    wanted = set(names)
    return [oracle for key, oracle in ORACLES.items() if key in wanted]


def check_scenario(
    scenario: Scenario, oracle_names: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Run the scenario through the (selected) oracles; all findings.

    A pure function of ``(scenario, oracle_names)``: violations come
    back in registry order, then each oracle's own canonical order.
    """
    violations: List[Violation] = []
    for oracle in resolve_oracles(oracle_names):
        violations.extend(oracle.check(scenario))
    return violations
