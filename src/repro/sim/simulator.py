"""The round loop: building and driving one simulation.

:func:`build_simulation` turns a declarative config into a live
:class:`Simulator`; :meth:`Simulator.run` executes the loop

    fault events  ->  update (Route; Signal; Move; produce)  ->  monitors
                                                              ->  metrics

and returns a :class:`~repro.sim.results.SimulationResult`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.params import Parameters
from repro.core.policies import (
    RandomTokenPolicy,
    StickyTokenPolicy,
    TokenPolicy,
)
from repro.core.sources import (
    BernoulliSource,
    CappedSource,
    EagerSource,
    SilentSource,
    SourcePolicy,
)
from repro.core.system import System, build_corridor_system
from repro.faults.injector import FaultInjector
from repro.faults.model import BernoulliFaultModel, FaultModel, NoFaults
from repro.grid.topology import Grid
from repro.metrics.occupancy import OccupancyProbe
from repro.metrics.throughput import ThroughputMeter
from repro.monitors.progress import EntityTracker
from repro.monitors.recorder import MonitorSuite
from repro.metrics.latency import percentile
from repro.obs.instrument import ObservabilityConfig, SimulationInstrumentation
from repro.sim.config import SimulationConfig, _parse_source_policy
from repro.sim.engine import make_engine, resolve_engine_name
from repro.sim.profiling import PhaseProfiler
from repro.sim.results import SimulationResult
from repro.sim.seeding import derive_rng


class Simulator:
    """Drives one ``System`` for a fixed horizon with all instrumentation."""

    def __init__(
        self,
        system: System,
        rounds: int,
        injector: Optional[FaultInjector] = None,
        monitors: Optional[MonitorSuite] = None,
        warmup: int = 0,
        config: Optional[SimulationConfig] = None,
        observability: Optional[ObservabilityConfig] = None,
        engine: Optional[str] = None,
    ):
        if rounds <= 0:
            raise ValueError(f"rounds must be positive, got {rounds}")
        if not 0 <= warmup < rounds:
            raise ValueError(f"warmup must be in [0, rounds), got {warmup}")
        self.system = system
        self.rounds = rounds
        self.warmup = warmup
        self.injector = injector or FaultInjector(NoFaults())
        # Note the target before any relocation; the split's failed list
        # is also the ``cells.failed`` gauge.
        self._split = self.injector.split(system)
        self.monitors = monitors
        if self.monitors is not None:
            self.monitors.attach(system)
        self.config = config
        self.meter = ThroughputMeter(warmup=warmup)
        self.occupancy = OccupancyProbe()
        self.tracker = EntityTracker()
        # Install after monitors.attach so their observer is chained (its
        # cost lands in the overhead bucket, not the phase buckets).
        self.profiler = PhaseProfiler().install(system)
        # Round engine: explicit argument > config.engine > REPRO_ENGINE >
        # reference. Every engine produces byte-identical state, reports,
        # metrics and traces (the lockstep tests); make_engine refuses an
        # engine the system's class does not name.
        engine_name = resolve_engine_name(
            engine if engine is not None
            else (config.engine if config is not None else None)
        )
        self.engine = make_engine(engine_name, system, config)
        self._ran = False
        # Observability (repro.obs) is opt-in: REPRO_METRICS/REPRO_TRACE
        # env toggles by default, or an explicit ObservabilityConfig. When
        # disabled (the default) the round loop pays one branch per round.
        obs_config = (
            observability
            if observability is not None
            else ObservabilityConfig.from_env()
        )
        self.obs: Optional[SimulationInstrumentation] = None
        if obs_config.enabled:
            fingerprint = config.fingerprint() if config is not None else None
            self.obs = SimulationInstrumentation(obs_config, fingerprint)
            if self.obs.registry is not None:
                self.injector.metrics = self.obs.registry
                if self.monitors is not None:
                    self.monitors.metrics = self.obs.registry
                # Engines with internal machinery (the sharded fleet's
                # shard.* / channel.* supervision counters) report into
                # the same registry; plain engines ignore the attribute.
                self.engine.metrics = self.obs.registry

    def step(self):
        """One loop iteration: faults, update, monitors, metrics.

        Returns the round's :class:`~repro.core.system.RoundReport`.
        """
        self.profiler.begin_round()
        decision = self.injector.apply(self.system)
        self.profiler.mark_overhead()
        report = self.engine.step()
        if self.monitors is not None:
            self.monitors.after_round(self.system, report)
        self.meter.observe(report.consumed_count)
        self.occupancy.observe(self.system, report)
        self.tracker.observe(report)
        if self.obs is not None:
            self.obs.observe_round(
                self.system, report, decision, len(self._split.failed)
            )
        self.profiler.end_round()
        return report

    def run(self) -> SimulationResult:
        """Execute the full horizon and summarize.

        Single-use: a second call raises. (It used to silently append
        ``rounds`` more rounds onto the same meters and profiler,
        producing a result that looked like — but was not — a fresh
        run.) To extend a finished run, call :meth:`step` explicitly
        and :meth:`summarize` when done; for a fresh run, build a new
        simulator from the config.
        """
        if self._ran:
            raise RuntimeError(
                "Simulator.run() already executed; a second call would "
                "silently accumulate onto the same meters/profiler. Build "
                "a new Simulator (build_simulation(config)) for a fresh "
                "run, or use step()/summarize() to continue explicitly."
            )
        self._ran = True
        for _ in range(self.rounds):
            self.step()
        return self.summarize()

    def summarize(self) -> SimulationResult:
        """Summarize the instrumentation into a result record.

        Also releases engine-held resources (the sharded engine's worker
        fleet); continuing with :meth:`step` afterward remains valid —
        engines re-acquire lazily.
        """
        self.engine.close()
        latencies = self.tracker.latencies()  # already sorted ascending
        mean_latency = sum(latencies) / len(latencies) if latencies else None
        # The same interpolated percentile as repro.metrics.latency, so a
        # run reports one p95 no matter which code path computes it.
        p95_latency = percentile(latencies, 0.95) if latencies else None
        return SimulationResult(
            config=self.config.to_dict() if self.config else {},
            rounds=self.meter.rounds,
            produced=self.system.total_produced,
            consumed=self.meter.total_consumed,
            throughput=self.meter.average_throughput(),
            in_flight=self.system.entity_count(),
            mean_latency=mean_latency,
            p95_latency=p95_latency,
            mean_blocked_cells=self.occupancy.mean_blocked(),
            mean_entities=self.occupancy.mean_entities(),
            total_failures=self.injector.total_failures,
            total_recoveries=self.injector.total_recoveries,
            monitor_violations=(
                len(self.monitors.violations) if self.monitors else 0
            ),
            phase_timings=self.profiler.timings.to_dict(),
            metrics=self.obs.finalize() if self.obs is not None else None,
        )


def _make_source_policy(spec: str) -> SourcePolicy:
    kind, argument = _parse_source_policy(spec)
    if kind == "eager":
        return EagerSource()
    if kind == "silent":
        return SilentSource()
    if kind == "bernoulli":
        assert argument is not None
        return BernoulliSource(rate=argument)
    assert kind == "capped" and argument is not None
    return CappedSource(EagerSource(), limit=int(argument))


def _make_token_policy(spec: str, seed: int) -> Optional[TokenPolicy]:
    """Materialize a token policy from its config spec string.

    Returns ``None`` for the default so ``System`` installs its own
    ``RoundRobinTokenPolicy`` (keeping the constructed system identical
    to pre-``token_policy`` builds). The ``random`` policy draws from its
    own derived stream so token choices never perturb the source RNG.
    """
    if spec == "roundrobin":
        return None
    if spec == "random":
        return RandomTokenPolicy(derive_rng(seed, "token"))
    assert spec == "sticky"
    return StickyTokenPolicy()


def build_simulation(
    config: SimulationConfig,
    observability: Optional[ObservabilityConfig] = None,
    engine: Optional[str] = None,
) -> Simulator:
    """Materialize a :class:`Simulator` from a declarative config.

    ``observability`` opts the run into metrics collection and/or
    protocol-event tracing (:mod:`repro.obs`); when omitted, the
    ``REPRO_METRICS`` / ``REPRO_TRACE`` environment toggles decide.

    ``engine`` overrides the round engine without touching the config
    (so e.g. the differential harness can run the *same* config object
    under both engines and compare results field-for-field); when
    omitted, ``config.engine`` then ``REPRO_ENGINE`` decide.
    """
    grid = Grid(config.grid_width, config.grid_height)
    params: Parameters = config.params
    source_rng = derive_rng(config.seed, "sources")
    token_policy = _make_token_policy(config.token_policy, config.seed)

    if config.commodities:
        from repro.multiflow.monitors import MultiflowMonitorSuite
        from repro.multiflow.system import MultiCommoditySystem

        system = MultiCommoditySystem(
            grid=grid,
            params=params,
            commodities=config.commodities,
            workload=config.workload,
            token_policy=token_policy,
            rng=source_rng,
        )
        targets = system.table.targets()
        monitor_suite = MultiflowMonitorSuite
    else:
        if config.path is not None:
            system = build_corridor_system(
                grid,
                params,
                list(config.path),
                source_policy=_make_source_policy(config.source_policy),
                rng=source_rng,
                fail_complement=config.fail_complement,
                token_policy=token_policy,
            )
        else:
            assert config.tid is not None
            sources = {
                cid: _make_source_policy(config.source_policy)
                for cid in config.sources
            }
            system = System(
                grid=grid,
                params=params,
                tid=config.tid,
                sources=sources,
                rng=source_rng,
                token_policy=token_policy,
            )
        targets = (system.tid,)
        monitor_suite = MonitorSuite

    fault_model: FaultModel
    if config.fault.enabled:
        immune = frozenset(targets) if config.fault.protect_target else frozenset()
        fault_model = BernoulliFaultModel(
            pf=config.fault.pf, pr=config.fault.pr, immune=immune
        )
    else:
        fault_model = NoFaults()

    injector = FaultInjector(fault_model, rng=derive_rng(config.seed, "faults"))
    if config.adversary is not None:
        # Compile the named campaign into scripted events + relocations
        # (single-flow only; config validation rejects it otherwise).
        # Scripted events layer on top of any Bernoulli churn (the
        # scripted model is consulted first so the Bernoulli rng stream
        # is unperturbed by the composition).
        from repro.adversary.scripts import compile_adversary

        compiled = compile_adversary(config)
        injector.splice(compiled.events, compiled.relocations)
    return Simulator(
        system=system,
        rounds=config.rounds,
        injector=injector,
        monitors=monitor_suite() if config.monitors else None,
        warmup=config.warmup,
        config=config,
        observability=observability,
        engine=engine,
    )
