"""Per-layer spans for the traced benchmark run.

The traced run times each layer from outside the program. It wraps the
call each layer is entered through and records one span per call:
name, start, end, parent span and round index. Spans stay in memory
and are reduced to per-layer metrics when the run ends. A span's self
time is its duration minus the time its child spans cover, so the self
times of a round span and all of its descendants add up to the round.

Span names (``<layer>.<call>``, the layer named after the ``repro``
module it times):

==========================  ===========================================
``serve.tick``              ``ServeService.tick`` (serve round span)
``sim.step``                ``Simulator.step`` (batch round span)
``sim.build``               ``build_simulation``
``faults.apply``            ``FaultInjector.apply``
``engine.step``             the round engine's ``step``
``core.<phase>``            engine time up to each ``System.phase_observer``
                            notification (route, signal, move, produce)
``monitors.signal_hook``    the observer chain run at the Signal
                            notification (predicate H, Lemma 4 pairs)
``monitors.after_round``    ``MonitorSuite.after_round``
``metrics.observe``         the three meters' ``observe``
``obs.observe_round``       ``SimulationInstrumentation.observe_round``
``shard.spawn``             fleet deployment at a step's start
``shard.post``              ``ShardChannel.post``
``shard.wait``              ``ShardChannel.collect``
``serve.pump``              ``EventBuffer.pump``
``sink.write_batch``        the sink's ``write_batch``
==========================  ===========================================
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Column indices of a span row.
NAME, START, END, PARENT, ROUND = range(5)

_NEXT_PHASE = {"route": "signal", "signal": "move", "move": "produce"}


class SpanRecorder:
    """Spans as rows ``[name, start, end, parent, round]``, in open order.

    ``round`` is the index the measuring loop assigns before each round
    (``-1`` outside the measured rounds); every span opened meanwhile
    carries it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.round = -1
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.round])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        # Pop through ``index``: a child left open by an exception ends
        # with its parent.
        while self._stack:
            top = self._stack.pop()
            if top == index:
                break
            self.spans[top][END] = self.spans[index][END]

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            selfs[span[PARENT]] -= span[END] - span[START]
    return selfs


class _EngineSpans:
    """Splits ``engine.step`` into phase spans at each phase notification.

    Installed as ``system.phase_observer`` in front of the existing
    observer chain (the simulator's profiler, then the monitors). The
    time from the step's start, or from the previous notification's
    return, to a notification is that phase's span; the chained
    observers run in a ``monitors.signal_hook`` span at the Signal
    notification, and untraced at the others, where they only record
    a clock reading.
    """

    def __init__(self, recorder: SpanRecorder, step: Callable, chained):
        self.recorder = recorder
        self._step = step
        self._chained = chained
        self._phase: Optional[int] = None

    def step(self):
        recorder = self.recorder
        outer = recorder.open("engine.step")
        self._phase = recorder.open("core.unfinished")
        try:
            return self._step()
        finally:
            if self._phase is not None:
                recorder.close(self._phase)
                self._phase = None
            recorder.close(outer)

    def on_phase(self, name: str, system) -> None:
        recorder = self.recorder
        if self._phase is not None:
            recorder.spans[self._phase][NAME] = f"core.{name}"
            recorder.close(self._phase)
            self._phase = None
        if self._chained is not None:
            if name == "signal":
                hook = recorder.open("monitors.signal_hook")
                self._chained(name, system)
                recorder.close(hook)
            else:
                self._chained(name, system)
        if name in _NEXT_PHASE:
            self._phase = recorder.open("core.unfinished")


class LayerTrace:
    """The spans and per-round counts of one traced run."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self.payloads: List[tuple] = []
        self.counts: Dict[str, float] = {}
        self.rounds = 0
        self.cells = 0
        self.simulator = None
        self.service = None
        self._decision = None
        self._report = None
        self._obs_events = 0
        self._sink_events = 0

    # -- installation ------------------------------------------------------

    def instrument_simulator(self, simulator) -> None:
        """Wrap the layer entry points of a built simulator."""
        recorder = self.recorder
        self.simulator = simulator
        self.cells = len(simulator.system.cells)
        step = recorder.wrap("sim.step", simulator.step)

        def sim_step():
            self._report = step()
            return self._report

        simulator.step = sim_step
        apply = recorder.wrap("faults.apply", simulator.injector.apply)

        def faults_apply(system):
            self._decision = apply(system)
            return self._decision

        simulator.injector.apply = faults_apply
        engine = _EngineSpans(
            recorder, simulator.engine.step, simulator.system.phase_observer
        )
        simulator.engine.step = engine.step
        simulator.system.phase_observer = engine.on_phase
        if simulator.monitors is not None:
            simulator.monitors.after_round = recorder.wrap(
                "monitors.after_round", simulator.monitors.after_round
            )
        for meter in (simulator.meter, simulator.occupancy, simulator.tracker):
            meter.observe = recorder.wrap("metrics.observe", meter.observe)
        if simulator.obs is not None:
            simulator.obs.observe_round = recorder.wrap(
                "obs.observe_round", simulator.obs.observe_round
            )

    def instrument_service(self, service) -> None:
        """Wrap a built service's buffer and sink, then its simulator."""
        recorder = self.recorder
        self.service = service
        service.tick = recorder.wrap("serve.tick", service.tick)
        service.buffer.pump = recorder.wrap("serve.pump", service.buffer.pump)
        service.sink.write_batch = recorder.wrap(
            "sink.write_batch", service.sink.write_batch
        )
        self.instrument_simulator(service.stepper.simulator)

    @contextmanager
    def patched_classes(self):
        """Wrap class-level entry points for the duration of a run.

        Shard channels and coordinators are created inside the engine
        (and again when a relocation redeploys the fleet), so their
        calls are wrapped on the class. ``ShardCoordinator._ensure_started``
        is the only entry to a deployment; it is private, but without a
        span of its own the spawn time would land in ``core.route``.
        The serve stepper builds its simulator itself, so its
        ``build_simulation`` reference is wrapped as well.
        """
        import repro.sim.stepper as stepper
        from repro.shard.channel import ShardChannel
        from repro.shard.coordinator import ShardCoordinator

        recorder = self.recorder
        payloads = self.payloads
        post, collect = ShardChannel.post, ShardChannel.collect
        ensure_started = ShardCoordinator._ensure_started
        build = stepper.build_simulation
        # A deployment's init exchanges are part of its spawn span, not
        # of the per-round channel spans.
        deploying = False

        def traced_post(channel, kind, payload):
            if deploying:
                return post(channel, kind, payload)
            payloads.append((recorder.round, kind, payload))
            index = recorder.open("shard.post")
            try:
                post(channel, kind, payload)
            finally:
                recorder.close(index)

        def traced_collect(channel, timeout=None):
            if deploying:
                return collect(channel, timeout)
            index = recorder.open("shard.wait")
            try:
                return collect(channel, timeout)
            finally:
                recorder.close(index)

        def traced_ensure_started(coordinator):
            nonlocal deploying
            if coordinator._started:
                return
            index = recorder.open("shard.spawn")
            deploying = True
            try:
                ensure_started(coordinator)
            finally:
                deploying = False
                recorder.close(index)

        ShardChannel.post = traced_post
        ShardChannel.collect = traced_collect
        ShardCoordinator._ensure_started = traced_ensure_started
        stepper.build_simulation = recorder.wrap("sim.build", build)
        try:
            yield
        finally:
            ShardChannel.post, ShardChannel.collect = post, collect
            ShardCoordinator._ensure_started = ensure_started
            stepper.build_simulation = build

    # -- per-round counts --------------------------------------------------

    def start_counting(self) -> None:
        """Take the event tallies' baselines after the set-up round."""
        obs = self.simulator.obs
        if obs is not None and obs.tracer is not None:
            self._obs_events = obs.tracer.total_events
        if self.service is not None:
            self._sink_events = self.service.buffer.produced

    def step(self, runner):
        """Step ``runner`` as the next traced round, then tally the round."""
        self.recorder.round = self.rounds + 1
        result = runner.step()
        self.count_round()
        return result

    def count_round(self) -> None:
        """Tally the round just stepped (between rounds, outside any span)."""
        report, decision = self._report, self._decision
        counts = self.counts
        system = self.simulator.system

        def add(name, value):
            counts[name] = counts.get(name, 0) + value

        changed = set()
        faults = 0
        if decision is not None:
            faults = len(decision.fail) + len(decision.recover)
            changed.update(decision.fail)
            changed.update(decision.recover)
        add("faults.events", faults)
        route = report.route
        add("core.route_changes", len(set(route.changed_dist) | set(route.changed_next)))
        add("core.grants", len(report.signal.granted))
        add("core.blocked", len(report.signal.blocked))
        add("core.transfers", len(report.move.transfers))
        for transfer in report.move.transfers:
            changed.add(transfer.src)
            if not transfer.consumed:
                changed.add(transfer.dst)
        for entity in report.produced:
            changed.add((int(entity.x), int(entity.y)))
        add("sim.changed_cell_share", len(changed) / self.cells)
        add("sim.entities_in_flight", system.total_produced - system.total_consumed)
        obs = self.simulator.obs
        if obs is not None and obs.tracer is not None:
            total = obs.tracer.total_events
            add("obs.events", total - self._obs_events)
            self._obs_events = total
        service = self.service
        if service is not None:
            produced = service.buffer.produced
            add("sink.events", produced - self._sink_events)
            self._sink_events = produced
        self._report = self._decision = None
        self.rounds += 1

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, relocate_round: Optional[int] = None) -> Dict[str, float]:
        """Per-round layer metrics over the spans of rounds ``>= 1``.

        Round 0 is the set-up round (deployment included); it is
        reported only through the one-off metrics ``sim.build_s``,
        ``shard.spawn_s`` and ``shard.redeploy_s`` (the whole step after
        the relocation at ``relocate_round``).
        """
        spans = self.recorder.spans
        rounds = max(self.rounds, 1)
        totals: Dict[str, float] = {}
        inclusive: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        spawns: List[float] = []
        build_s = redeploy_s = 0.0
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            duration = span[END] - span[START]
            if name == "sim.build":
                build_s = duration
            elif name == "shard.spawn":
                spawns.append(duration)
            elif name == "sim.step" and span[ROUND] == relocate_round:
                redeploy_s = duration
            if span[ROUND] < 1:
                continue
            totals[name] = totals.get(name, 0.0) + own
            inclusive[name] = inclusive.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1

        def per_round_ms(name):
            return totals.get(name, 0.0) / rounds * 1e3

        def per_round(name):
            return self.counts.get(name, 0) / rounds

        engine_ms = inclusive.get("engine.step", 0.0) / rounds * 1e3
        coordinator_ms = 0.0
        if "shard.wait" in totals:
            # A redeploy (after a relocation) spawns inside a step; it is
            # reported as shard.redeploy_s, not as coordinator time.
            coordinator_ms = engine_ms - sum(
                per_round_ms(name)
                for name in (
                    "shard.post", "shard.wait", "shard.spawn", "monitors.signal_hook"
                )
            )
        grants, blocked = self.counts.get("core.grants", 0), self.counts.get("core.blocked", 0)
        batches = calls.get("sink.write_batch", 0)
        post_bytes = sum(
            len(pickle.dumps({"seq": 0, "kind": kind, "payload": payload}))
            for round_index, kind, payload in self.payloads
            if round_index >= 1
        )
        service = self.service
        return {
            "sim.build_s": build_s,
            "sim.glue_ms": per_round_ms("sim.step"),
            "sim.changed_cell_share": per_round("sim.changed_cell_share"),
            "sim.entities_in_flight": per_round("sim.entities_in_flight"),
            "faults.apply_ms": per_round_ms("faults.apply"),
            "faults.events": per_round("faults.events"),
            "engine.step_ms": engine_ms,
            "core.route_ms": per_round_ms("core.route"),
            "core.signal_ms": per_round_ms("core.signal"),
            "core.move_ms": per_round_ms("core.move"),
            "core.produce_ms": per_round_ms("core.produce"),
            "core.route_changes": per_round("core.route_changes"),
            "core.grants": per_round("core.grants"),
            "core.blocked": per_round("core.blocked"),
            "core.transfers": per_round("core.transfers"),
            "core.grant_share": grants / (grants + blocked) if grants + blocked else 0.0,
            "monitors.after_round_ms": per_round_ms("monitors.after_round"),
            "monitors.signal_hook_ms": per_round_ms("monitors.signal_hook"),
            "metrics.observe_ms": per_round_ms("metrics.observe"),
            "obs.observe_round_ms": per_round_ms("obs.observe_round"),
            "obs.events": per_round("obs.events"),
            "shard.post_ms": per_round_ms("shard.post"),
            "shard.wait_ms": per_round_ms("shard.wait"),
            "shard.coordinator_ms": coordinator_ms,
            "shard.post_bytes": post_bytes / rounds,
            "shard.spawn_s": spawns[0] if spawns else 0.0,
            "shard.redeploy_s": redeploy_s,
            "serve.tick_self_ms": per_round_ms("serve.tick"),
            "serve.pump_ms": per_round_ms("serve.pump"),
            "sink.write_batch_ms": (
                totals.get("sink.write_batch", 0.0) / batches * 1e3 if batches else 0.0
            ),
            "sink.events": per_round("sink.events"),
            "sink.batches": batches / rounds,
            "buffer.max_depth": service.buffer.max_depth if service is not None else 0,
        }

    def self_time_table(self) -> List[tuple]:
        """``(span name, self ms per round)`` over rounds ``>= 1``, largest first."""
        totals: Dict[str, float] = {}
        for span, own in zip(self.recorder.spans, self_times(self.recorder.spans)):
            if span[ROUND] >= 1:
                totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
        rounds = max(self.rounds, 1)
        return sorted(
            ((name, total / rounds * 1e3) for name, total in totals.items()),
            key=lambda row: -row[1],
        )
