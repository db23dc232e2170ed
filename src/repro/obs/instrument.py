"""Wiring: deriving metrics and events from a running simulation.

:class:`SimulationInstrumentation` sits in the round loop
(:class:`repro.sim.simulator.Simulator` calls it once per round when
observability is enabled) and translates the phase reports the protocol
already produces — :class:`~repro.core.route.RoutePhaseReport`,
:class:`~repro.core.signal.SignalPhaseReport`,
:class:`~repro.core.move.MovePhaseReport`, plus the round's
:class:`~repro.faults.model.FaultDecision` — into registry metrics and
structured trace events. The protocol phases themselves stay
observation-free; with observability disabled (the default) the round
loop pays exactly one ``is None`` branch.

Event emission order within a round is canonical (faults, route
changes, token rotations, grants, blocks, transfers/consumptions; cell
order sorted within each group), so identical seeded runs yield
byte-identical traces whether executed serially or on a worker process.

Enablement comes from :class:`ObservabilityConfig`, normally read from
the environment: ``REPRO_METRICS=1`` collects metrics into
``SimulationResult.metrics``; ``REPRO_TRACE=<path>`` streams events to
``<path>`` (a ``.jsonl`` file, or a directory that receives one
``trace-<config fingerprint>.jsonl`` per run — the directory form is
what sweeps use, since every point needs its own file).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import JsonlSink, ProtocolTracer, RingBufferSink

#: Env var enabling the metrics registry (truthy: 1/true/yes/on).
ENV_METRICS = "REPRO_METRICS"
#: Env var enabling event tracing; its value is the output path.
ENV_TRACE = "REPRO_TRACE"

_TRUTHY = {"1", "true", "yes", "on"}

#: The metrics catalog: every metric the instrumentation (or the sweep
#: supervision layer) can emit, with its kind and meaning. This is the
#: registry ``docs/observability.md``'s catalog table is diffed against
#: in CI — add here first, document second, or the docs job fails.
METRIC_NAMES: Dict[str, Dict[str, str]] = {
    "route.dist_changes": {
        "kind": "counter",
        "description": "cells whose Route dist changed, summed over rounds",
    },
    "route.next_changes": {
        "kind": "counter",
        "description": "cells whose Route next-pointer changed, summed over rounds",
    },
    "route.stabilization_rounds": {
        "kind": "histogram",
        "description": "rounds from a fault/recovery event until the Route "
        "phase is quiescent again (Lemma 6 / Corollary 7 in the wild)",
    },
    "signal.granted": {
        "kind": "counter",
        "description": "Signal grants (token holder admitted)",
    },
    "signal.blocked": {
        "kind": "counter",
        "description": "Signal blocks (token held but signal := bot)",
    },
    "signal.granted.by_cell": {
        "kind": "counter",
        "description": "Signal grants, labeled by granting cell",
    },
    "signal.blocked.by_cell": {
        "kind": "counter",
        "description": "Signal blocks, labeled by blocking cell",
    },
    "signal.token_rotations": {
        "kind": "counter",
        "description": "post-grant token rotations (Lemma 9 fairness steps)",
    },
    "move.transfers": {
        "kind": "counter",
        "description": "entities transferred across a cell boundary "
        "(including into the target)",
    },
    "move.consumed": {
        "kind": "counter",
        "description": "entities consumed by the target cell",
    },
    "source.produced": {
        "kind": "counter",
        "description": "entities inserted by source cells",
    },
    "faults.failed": {
        "kind": "counter",
        "description": "fail transitions applied by the injector",
    },
    "faults.recovered": {
        "kind": "counter",
        "description": "recover transitions applied by the injector",
    },
    "monitors.violations": {
        "kind": "counter",
        "description": "property violations recorded by the monitor suite",
    },
    "entities.in_flight": {
        "kind": "gauge",
        "description": "entities present in the system after the round",
    },
    "cells.failed": {
        "kind": "gauge",
        "description": "currently failed cells after the round",
    },
    "trace.events": {
        "kind": "counter",
        "description": "protocol events emitted by the tracer this run",
    },
    "trace.evicted": {
        "kind": "counter",
        "description": "events overwritten by a full ring-buffer trace sink "
        "(the bounded-history cost, counted instead of silent)",
    },
    "sink.dropped": {
        "kind": "counter",
        "description": "events evicted unsent by the serve buffer under the "
        "drop-oldest backpressure policy",
    },
    "sink.delivered": {
        "kind": "counter",
        "description": "events delivered to the serve sink (batched)",
    },
    "sink.batches": {
        "kind": "counter",
        "description": "batches committed to the serve sink",
    },
    "serve.commands": {
        "kind": "counter",
        "description": "service commands applied by the serve loop",
    },
    "serve.command_errors": {
        "kind": "counter",
        "description": "service commands rejected with a structured error",
    },
    "serve.heals": {
        "kind": "counter",
        "description": "shard healing-log entries forwarded as service "
        "events by the serve loop",
    },
    "sweep.points_completed": {
        "kind": "counter",
        "description": "sweep points that returned a result",
    },
    "sweep.retries": {
        "kind": "counter",
        "description": "point retries scheduled by the sweep supervisor",
    },
    "sweep.errors": {
        "kind": "counter",
        "description": "point attempts that raised an exception",
    },
    "sweep.timeouts": {
        "kind": "counter",
        "description": "point attempts killed for exceeding the per-point timeout",
    },
    "sweep.worker_deaths": {
        "kind": "counter",
        "description": "worker processes that vanished mid-point",
    },
    "sweep.point_failures": {
        "kind": "counter",
        "description": "points that exhausted their retry budget",
    },
    "shard.deaths": {
        "kind": "counter",
        "description": "shard workers declared dead (exit, heartbeat "
        "timeout, or unrecoverable channel corruption)",
    },
    "shard.heals": {
        "kind": "counter",
        "description": "dead shards respawned from an authoritative "
        "boundary snapshot",
    },
    "shard.respawn_rounds": {
        "kind": "histogram",
        "description": "rounds from a shard respawn until a round's Route "
        "changes no cell of the healed district (the Lemma 6 healing "
        "horizon, observed)",
    },
    "channel.retries": {
        "kind": "counter",
        "description": "inter-shard requests retransmitted after a "
        "timeout or garbled reply",
    },
    "channel.timeouts": {
        "kind": "counter",
        "description": "inter-shard request timeouts (before retry "
        "accounting; a death needs retries to exhaust too)",
    },
    "commodity.produced": {
        "kind": "counter",
        "description": "entities produced, labeled by commodity "
        "(multi-commodity runs only)",
    },
    "commodity.consumed": {
        "kind": "counter",
        "description": "entities delivered to their commodity's target, "
        "labeled by commodity (multi-commodity runs only)",
    },
    "commodity.in_flight": {
        "kind": "gauge",
        "description": "entities currently in flight, labeled by "
        "commodity (multi-commodity runs only)",
    },
}


def _is_truthy(value: Optional[str]) -> bool:
    return value is not None and value.strip().lower() in _TRUTHY


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to observe: metrics, event tracing, or both.

    ``trace_path`` of ``None`` disables tracing; a ``.jsonl`` path names
    one output file; any other path is treated as a directory receiving
    one ``trace-<fingerprint>.jsonl`` per run. ``trace_buffer`` (used
    when tracing is requested without a path, e.g. from the API) bounds
    an in-memory ring buffer instead.
    """

    metrics: bool = False
    trace_path: Optional[str] = None
    trace_buffer: Optional[int] = None
    trace_sink: Optional[object] = None
    """An explicit, pre-built sink object (anything with
    ``write``/``flush``/``close``) the tracer should emit into, taking
    precedence over ``trace_path``/``trace_buffer``. In-process
    consumers — ``repro.serve``'s batched event buffer, capture-style
    tests — use this; it has no environment-variable form."""

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> "ObservabilityConfig":
        """Read ``REPRO_METRICS`` / ``REPRO_TRACE`` from the environment."""
        env = os.environ if environ is None else environ
        return cls(
            metrics=_is_truthy(env.get(ENV_METRICS)),
            trace_path=env.get(ENV_TRACE) or None,
        )

    @property
    def tracing(self) -> bool:
        """True when event tracing is requested (sink, path, or buffer)."""
        return (
            self.trace_sink is not None
            or self.trace_path is not None
            or self.trace_buffer is not None
        )

    @property
    def enabled(self) -> bool:
        """True when anything at all is being observed."""
        return self.metrics or self.tracing

    def trace_file(self, fingerprint: Optional[str]) -> Optional[Path]:
        """Resolve the output file for one run (None = ring buffer)."""
        if self.trace_path is None:
            return None
        path = Path(self.trace_path)
        if path.suffix == ".jsonl":
            return path
        return path / f"trace-{fingerprint or 'unconfigured'}.jsonl"


class SimulationInstrumentation:
    """Per-run observability: one registry and/or tracer per simulation.

    Built by the :class:`~repro.sim.simulator.Simulator` when its
    :class:`ObservabilityConfig` enables anything. ``registry`` is the
    run's :class:`~repro.obs.metrics.MetricsRegistry` (None when metrics
    are off); ``tracer`` the run's
    :class:`~repro.obs.tracer.ProtocolTracer` (None when tracing is off).
    """

    def __init__(
        self,
        config: ObservabilityConfig,
        fingerprint: Optional[str] = None,
    ):
        self.config = config
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics else None
        )
        self.tracer: Optional[ProtocolTracer] = None
        if config.tracing:
            if config.trace_sink is not None:
                sink = config.trace_sink
            else:
                path = config.trace_file(fingerprint)
                sink = (
                    JsonlSink(path, fingerprint)
                    if path is not None
                    else RingBufferSink(capacity=config.trace_buffer or 10_000)
                )
            self.tracer = ProtocolTracer(sink, fingerprint)
        self._disrupted_round: Optional[int] = None
        self._finalized = False

    # ------------------------------------------------------------------

    def observe_round(self, system, report, decision, failed_cells: int) -> None:
        """Digest one round: fault decision + phase reports -> metrics/events.

        Called once per round, after monitors and metrics probes, with
        the :class:`~repro.core.system.RoundReport` of the round, the
        :class:`~repro.faults.model.FaultDecision` applied before it and
        the number of failed cells, which the fault injector keeps
        (``LiveSplit.failed``). The gauges read no cell: the entities in
        flight are ``total_produced - total_consumed``.
        """
        rnd = report.round_index
        if decision is not None and not decision.is_quiet:
            self._disrupted_round = rnd
        self._observe_faults(rnd, decision)
        self._observe_route(system, report.route, rnd)
        self._observe_signal(system, report.signal, rnd)
        self._observe_move(report.move, rnd)
        registry = self.registry
        if registry is not None:
            if report.produced:
                registry.counter("source.produced").inc(len(report.produced))
            registry.gauge("entities.in_flight").set(
                system.total_produced - system.total_consumed
            )
            registry.gauge("cells.failed").set(failed_cells)
            if getattr(system, "is_multiflow", False):
                self._observe_commodities(system, report, registry)
        if self.tracer is not None:
            self.tracer.flush()

    def _observe_commodities(self, system, report, registry) -> None:
        """Per-commodity ledger metrics (multi-commodity systems only)."""
        for entity in report.produced:
            registry.counter(
                "commodity.produced", commodity=entity.commodity_name
            ).inc()
        for entity in report.move.consumed:
            registry.counter(
                "commodity.consumed", commodity=entity.commodity_name
            ).inc()
        for name, count in system.in_flight_by_commodity().items():
            registry.gauge("commodity.in_flight", commodity=name).set(count)

    def _observe_faults(self, rnd: int, decision) -> None:
        if decision is None or self.tracer is None:
            return
        for cid in sorted(decision.fail):
            self.tracer.emit("CellFailed", rnd, {"cell": list(cid)})
        for cid in sorted(decision.recover):
            self.tracer.emit("CellRecovered", rnd, {"cell": list(cid)})

    def _observe_route(self, system, route, rnd: int) -> None:
        registry = self.registry
        if registry is not None:
            if route.changed_dist:
                registry.counter("route.dist_changes").inc(len(route.changed_dist))
            if route.changed_next:
                registry.counter("route.next_changes").inc(len(route.changed_next))
            if self._disrupted_round is not None and route.quiescent:
                registry.histogram("route.stabilization_rounds").observe(
                    rnd - self._disrupted_round
                )
                self._disrupted_round = None
        if self.tracer is not None:
            for cid in sorted(set(route.changed_dist) | set(route.changed_next)):
                state = system.cells[cid]
                dist = state.dist if state.dist != float("inf") else None
                self.tracer.emit(
                    "RouteChanged",
                    rnd,
                    {
                        "cell": list(cid),
                        "dist": dist,
                        "next": list(state.next_id) if state.next_id else None,
                    },
                )

    def _observe_signal(self, system, signal, rnd: int) -> None:
        registry = self.registry
        if registry is not None:
            if signal.granted:
                registry.counter("signal.granted").inc(len(signal.granted))
            if signal.blocked:
                registry.counter("signal.blocked").inc(len(signal.blocked))
            if signal.rotated:
                registry.counter("signal.token_rotations").inc(len(signal.rotated))
            for cid in signal.granted:
                registry.counter(
                    "signal.granted.by_cell", cell=f"{cid[0]},{cid[1]}"
                ).inc()
            for cid in signal.blocked:
                registry.counter(
                    "signal.blocked.by_cell", cell=f"{cid[0]},{cid[1]}"
                ).inc()
        if self.tracer is not None:
            for cell, old, new in sorted(signal.rotated):
                self.tracer.emit(
                    "TokenRotated",
                    rnd,
                    {"cell": list(cell), "from": list(old), "to": list(new)},
                )
            for cell in sorted(signal.granted):
                self.tracer.emit(
                    "SignalGranted",
                    rnd,
                    {"cell": list(cell), "to": list(signal.granted[cell])},
                )
            reasons = getattr(signal, "block_reasons", {})
            for cell in sorted(signal.blocked):
                holder = system.cells[cell].token
                self.tracer.emit(
                    "SignalBlocked",
                    rnd,
                    {
                        "cell": list(cell),
                        "holder": list(holder) if holder else None,
                        # The core rule leaves block_reasons empty (its
                        # only cause is the gap); richer systems annotate.
                        "reason": reasons.get(cell, "gap"),
                    },
                )

    def _observe_move(self, move, rnd: int) -> None:
        registry = self.registry
        if registry is not None:
            if move.transfers:
                registry.counter("move.transfers").inc(len(move.transfers))
            if move.consumed:
                registry.counter("move.consumed").inc(len(move.consumed))
        if self.tracer is not None:
            for transfer in move.transfers:
                if transfer.consumed:
                    self.tracer.emit(
                        "EntityConsumed",
                        rnd,
                        {"uid": transfer.uid, "src": list(transfer.src)},
                    )
                else:
                    self.tracer.emit(
                        "EntityTransferred",
                        rnd,
                        {
                            "uid": transfer.uid,
                            "src": list(transfer.src),
                            "dst": list(transfer.dst),
                        },
                    )

    # ------------------------------------------------------------------

    def finalize(self) -> Optional[Dict]:
        """Close the tracer and return the metrics dict (idempotent).

        The returned dict is what lands on
        ``SimulationResult.metrics`` — fully deterministic, so it
        participates in serial-vs-parallel equality checks.
        """
        if self.tracer is not None:
            if self.registry is not None and not self._finalized:
                self.registry.counter("trace.events").inc(self.tracer.total_events)
                # A ring-buffer sink overwrites old events once full; the
                # count rides into the metrics so a soak run's bounded
                # history is visible, not a silent loss.
                evicted = getattr(self.tracer.sink, "evicted", 0)
                if evicted:
                    self.registry.counter("trace.evicted").inc(evicted)
            self.tracer.close()
        self._finalized = True
        if self.registry is None:
            return None
        return self.registry.to_dict()
