"""The benchmark's workloads and the runners that step them.

Each workload is a seeded input generator plus a runner that steps it
through the program's public entry points:

* ``contention-16`` and ``city-96`` build a :class:`~repro.sim.simulator.Simulator`
  with :func:`~repro.sim.simulator.build_simulation` and call
  ``Simulator.step()`` once per round (a closed loop: the next round
  starts when the previous one returns);
* ``serve-sharded`` builds a :class:`~repro.serve.ServeService` and calls
  ``ServeService.tick()`` once per round, with operator commands from a
  scripted schedule. Its coordinator and shard workers share one CPU
  (:attr:`Workload.one_cpu`).

A runner is built, stepped, then finished; ``finish`` returns the
:class:`Outcome` the output check compares against a twin run of the
same inputs on a second engine (:func:`run_twin`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.adversary.scripts import compile_adversary
from repro.experiments.contention import PARAMS
from repro.grid.topology import Grid
from repro.obs.instrument import ObservabilityConfig
from repro.serve import (
    MemorySink,
    ScriptedCommandSource,
    ServeService,
    SqliteSink,
    parse_command,
)
from repro.serve.commands import CommandError
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.simulator import build_simulation
from repro.testing.differential import state_digest

#: ``SimulationConfig.rounds`` is only a nominal horizon here: runs last
#: as long as the measuring window. Serve compiles its adversary
#: campaigns against it, so it also sets the campaigns' wave spacing.
BATCH_NOMINAL_ROUNDS = 1_000_000
SERVE_NOMINAL_ROUNDS = 200


@dataclass
class Outcome:
    """What a finished run leaves behind, for the output check."""

    rounds: int
    digest: str
    produced: int
    consumed: int
    violations: int
    #: Ledger defects found by the runner itself (serve: buffer
    #: conservation, command errors, sink rows); empty when clean.
    problems: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Batch workloads: build_simulation + Simulator.step()
# ----------------------------------------------------------------------


class BatchRunner:
    """Drives ``Simulator.step()`` over one config.

    Observability is pinned off (the ``REPRO_METRICS`` / ``REPRO_TRACE``
    environment toggles would otherwise decide), and monitors run
    strict, so a violating round raises.
    """

    def __init__(self, config: SimulationConfig, engine: Optional[str] = None):
        self.config = config
        self.engine = engine
        self.simulator = None
        self.rounds = 0

    def build(self, build: Callable = build_simulation) -> None:
        """Materialize the simulator (``build`` lets the tracer wrap it)."""
        self.simulator = build(
            self.config, observability=ObservabilityConfig(), engine=self.engine
        )

    def step(self) -> Tuple[int, int]:
        """One round; returns ``(operations, failed operations)``."""
        self.simulator.step()
        self.rounds += 1
        return 1, 0

    def finish(self) -> Outcome:
        simulator = self.simulator
        simulator.engine.close()
        system = simulator.system
        return Outcome(
            rounds=self.rounds,
            digest=state_digest(system),
            produced=system.total_produced,
            consumed=system.total_consumed,
            violations=(
                len(simulator.monitors.violations) if simulator.monitors else 0
            ),
        )

    def release(self) -> None:
        """Free the run's resources without checking it."""
        self.simulator.engine.close()


def contention_config(seed: int) -> SimulationConfig:
    """All-boundary contention (``repro.experiments.contention``) at 16x16.

    Dense: about 500 entities in flight keep the grid occupied, so the
    per-cell Route and Signal sweeps of the reference engine dominate.
    """
    grid = Grid(16)
    target = (8, 8)
    return SimulationConfig(
        grid_width=16,
        params=PARAMS,
        rounds=BATCH_NOMINAL_ROUNDS,
        tid=target,
        sources=tuple(cid for cid in grid.boundary_cells() if cid != target),
        source_policy="eager",
        fault=FaultSpec(pf=0.002, pr=0.1, protect_target=True),
        seed=seed,
        monitors=True,
        engine="reference",
    )


def city_config(seed: int) -> SimulationConfig:
    """A 96x96 grid with four light sources at the edge midpoints.

    Sparse: under 1% of the cells change per round, so the numpy engine
    is cheap and the whole-grid Python scans (monitors, fault injector,
    meters) dominate.
    """
    return SimulationConfig(
        grid_width=96,
        params=PARAMS,
        rounds=BATCH_NOMINAL_ROUNDS,
        tid=(48, 48),
        sources=((48, 0), (0, 48), (95, 48), (48, 95)),
        source_policy="eager",
        fault=FaultSpec(pf=0.0005, pr=0.05, protect_target=True),
        seed=seed,
        monitors=True,
        engine="vectorized",
    )


# ----------------------------------------------------------------------
# The serve workload: ServeService.tick()
# ----------------------------------------------------------------------

SERVE_GRID = 16
SERVE_TARGET = (8, 8)
SERVE_SOURCES = ((0, 3), (15, 12), (4, 15))
ARRIVE_CELL = (0, 10)
ARRIVE_EVERY = 10
CAMPAIGN_SPEC = "regional_failure"
CAMPAIGN_EVERY = 200
CAMPAIGN_OFFSET = 20
#: The one target relocation, early enough that a slow build still
#: reaches it inside the window.
RELOCATE_AT = 160
#: Where it moves the target: the first of these cells that no wave of
#: the seed's campaign fails. They lie 2 apart, so each 2x2 region of
#: the campaign covers at most one, and close together, so each leaves
#: about the same paths to the target. The service compiles each
#: campaign against the config's target, not the live one, so a region
#: may cover the relocated target; a failed target stalls delivery for
#: the whole wave and doubles the events per tick, which would make the
#: cost of a run depend on its seed.
RELOCATE_CHOICES = ((11, 5), (11, 7), (13, 5), (13, 7))
BATCH_SIZE = 128
BUFFER_CAPACITY = 4096
SHARDS = 2


def serve_config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        grid_width=SERVE_GRID,
        params=PARAMS,
        rounds=SERVE_NOMINAL_ROUNDS,
        tid=SERVE_TARGET,
        sources=SERVE_SOURCES,
        source_policy="eager",
        seed=seed,
        monitors=True,
        engine="sharded",
        shards=SHARDS,
    )


def relocation_target(config: SimulationConfig) -> Tuple[int, int]:
    """The first of :data:`RELOCATE_CHOICES` the campaign never fails."""
    campaign = compile_adversary(replace(config, adversary=CAMPAIGN_SPEC))
    failed = {event.cell for event in campaign.events}
    return next(cell for cell in RELOCATE_CHOICES if cell not in failed)


def serve_schedule(config: SimulationConfig, horizon: int = 100_000) -> List[Tuple[int, Dict]]:
    """The operator script: arrivals, fault campaigns, one relocation.

    The seed enters through the config: it places the campaigns' failure
    regions, and with them the relocation target. The final ``shutdown``
    is sent live, when the measuring window closes
    (:meth:`ServeRunner.finish`).
    """
    schedule: List[Tuple[int, Dict]] = [
        (rnd, {"v": 1, "cmd": "arrive", "cell": list(ARRIVE_CELL)})
        for rnd in range(ARRIVE_EVERY // 2, horizon, ARRIVE_EVERY)
    ]
    schedule.extend(
        (rnd, {"v": 1, "cmd": "adversary", "spec": CAMPAIGN_SPEC})
        for rnd in range(CAMPAIGN_OFFSET, horizon, CAMPAIGN_EVERY)
    )
    target = relocation_target(config)
    schedule.append((RELOCATE_AT, {"v": 1, "cmd": "relocate", "target": list(target)}))
    return schedule


class OperatorSource:
    """The scripted schedule plus commands sent live (the final shutdown)."""

    def __init__(self, schedule):
        self._scripted = ScriptedCommandSource(schedule)
        self._live: List[Dict] = []

    def send(self, obj: Dict) -> None:
        self._live.append(obj)

    def due(self, round_index: int):
        out = self._scripted.due(round_index)
        for obj in self._live:
            try:
                out.append((parse_command(obj), None))
            except CommandError as error:
                out.append((None, error))
        self._live = []
        return out


class ServeRunner:
    """Drives ``ServeService.tick()`` with the operator script.

    The measured run streams into an on-disk :class:`SqliteSink` under
    ``workdir``; twins stream into a :class:`MemorySink`. Whatever the
    sink, the runner records when each batch holding a
    ``service.command`` acknowledgement was committed, which gives the
    acknowledgement latency of every command (:meth:`ack_latencies`).
    Those times are read on the service's own clock, which runs only
    while the runner is inside the service (a tick or the final drain),
    so a caller that pauses between ticks does not lengthen them.
    """

    def __init__(
        self,
        config: SimulationConfig,
        schedule,
        workdir: Optional[Path] = None,
        engine: Optional[str] = None,
    ):
        self.config = config
        self.schedule = schedule
        self.workdir = workdir
        self.engine = engine
        self.service: Optional[ServeService] = None
        self.source: Optional[OperatorSource] = None
        self.sink_path: Optional[Path] = None
        self.rounds = 0
        self._tick_started: Dict[int, float] = {}
        self._acks: List[float] = []
        self._busy = 0.0
        self._entered = 0.0

    def _clock(self) -> float:
        """Seconds spent inside the service so far."""
        return self._busy + time.perf_counter() - self._entered

    def _enter(self) -> None:
        self._entered = time.perf_counter()
        self._tick_started[self.service.stepper.round_index] = self._busy

    def _leave(self) -> None:
        self._busy += time.perf_counter() - self._entered

    def build(self) -> None:
        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            self.sink_path = self.workdir / f"events-{time.monotonic_ns()}.sqlite"
            sink = SqliteSink(self.sink_path)
        else:
            sink = MemorySink()
        commit = sink.write_batch

        def write_batch(records):
            commit(records)
            committed = self._clock()
            for record in records:
                if record.get("type") == "service.command":
                    started = self._tick_started.get(record["round"])
                    if started is not None:
                        self._acks.append(committed - started)

        sink.write_batch = write_batch
        self.source = OperatorSource(self.schedule)
        self.service = ServeService(
            self.config,
            sink,
            source=self.source,
            engine=self.engine,
            batch_size=BATCH_SIZE,
            buffer_capacity=BUFFER_CAPACITY,
            backpressure="block",
        )

    def step(self) -> Tuple[int, int]:
        """One tick; returns ``(operations, failed operations)``.

        Operations are the round plus every command due at it; a round
        fails when it recorded a monitor violation, a command when the
        service rejected it.
        """
        service = self.service
        applied, errors = service.commands_applied, service.command_errors
        violations = service.violations_seen
        self._enter()
        running = service.tick()
        self._leave()
        if not running:
            raise RuntimeError(f"service stopped early: {service.stats()['stop_reason']}")
        commands = service.commands_applied - applied
        rejected = service.command_errors - errors
        self.rounds += 1
        failed_round = 1 if service.violations_seen > violations else 0
        return 1 + commands + rejected, failed_round + rejected

    def finish(self) -> Outcome:
        """Send the shutdown, drain the stream, and audit the ledger."""
        service = self.service
        self.source.send({"v": 1, "cmd": "shutdown"})
        self._enter()
        service.tick()
        service.finish()
        self._leave()
        system = service.stepper.system
        stats = service.stats()
        buffer = stats["buffer"]
        problems = []
        if stats["stop_reason"] != "shutdown":
            problems.append(f"stop reason {stats['stop_reason']!r}, expected 'shutdown'")
        if stats["command_errors"]:
            problems.append(f"{stats['command_errors']} command(s) rejected")
        if buffer["produced"] != buffer["delivered"]:
            problems.append(
                f"buffer produced {buffer['produced']} events but delivered "
                f"{buffer['delivered']}"
            )
        if buffer["dropped"] or buffer["pending"]:
            problems.append(
                f"buffer dropped {buffer['dropped']}, pending {buffer['pending']}"
            )
        if self.sink_path is not None:
            rows = sink_rows(self.sink_path)
            if rows != buffer["produced"]:
                problems.append(
                    f"sink holds {rows} rows for {buffer['produced']} events produced"
                )
            self.sink_path.unlink()
        return Outcome(
            rounds=self.rounds,
            digest=state_digest(system),
            produced=system.total_produced,
            consumed=system.total_consumed,
            violations=service.violations_seen,
            problems=problems,
        )

    def release(self) -> None:
        """Stop the shard fleet and drop the sink without checking the run."""
        self.service.stepper.simulator.engine.close()
        self.service.sink.close()
        if self.sink_path is not None:
            self.sink_path.unlink(missing_ok=True)

    def ack_latencies(self) -> List[float]:
        """Seconds from the start of each command's due tick to the commit
        of the batch holding its acknowledgement."""
        return list(self._acks)


def sink_rows(path: Path) -> int:
    import sqlite3

    conn = sqlite3.connect(str(path))
    try:
        return conn.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in ``BENCHMARK.json``."""

    name: str
    default_seed: int
    #: The engine the output check's twin runs on.
    twin_engine: str
    #: Span-name prefixes whose self time the rationale says out-weighs
    #: every other layer's (checked on each traced run).
    dominant: Tuple[str, ...]
    make: Callable[..., object]
    """``make(seed, workdir, engine=None)`` -> a fresh runner."""
    #: Run every process of the workload (shard workers included) on one
    #: CPU. On a small virtual machine each hand-off between processes
    #: on different CPUs waits for the hypervisor to wake the idle one,
    #: and that wait swings far more from run to run than the work does.
    one_cpu: bool = False


def _batch(config_for: Callable[[int], SimulationConfig]):
    def make(seed: int, workdir: Optional[Path] = None, engine: Optional[str] = None):
        return BatchRunner(config_for(seed), engine=engine)

    return make


def _serve(seed: int, workdir: Optional[Path] = None, engine: Optional[str] = None):
    config = serve_config(seed)
    return ServeRunner(config, serve_schedule(config), workdir=workdir, engine=engine)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "contention-16",
            default_seed=7,
            twin_engine="vectorized",
            dominant=("core.",),
            make=_batch(contention_config),
        ),
        Workload(
            "city-96",
            default_seed=7,
            twin_engine="incremental",
            dominant=("monitors.", "faults.", "metrics."),
            make=_batch(city_config),
        ),
        Workload(
            "serve-sharded",
            default_seed=42,
            twin_engine="reference",
            dominant=("shard.post", "shard.wait"),
            make=_serve,
            one_cpu=True,
        ),
    )
}


def run_twin(workload: Workload, seed: int, rounds: int) -> Outcome:
    """Replay ``rounds`` rounds of the workload on its twin engine.

    Batch twins run with monitors off (monitors only observe, so the
    end state is unchanged) to keep the check cheap.
    """
    runner = workload.make(seed, engine=workload.twin_engine)
    if isinstance(runner, BatchRunner):
        runner.config = replace(runner.config, monitors=False)
    runner.build()
    for _ in range(rounds):
        runner.step()
    return runner.finish()
