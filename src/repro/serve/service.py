"""The ``repro serve`` loop: a simulation run as a long-lived service.

:class:`ServeService` wires the pieces of the serve subsystem together
around a :class:`~repro.sim.stepper.ResumableStepper`:

* a **command source** (:mod:`repro.serve.commands`) queues operator
  commands — arrivals, fault/recover injections, target relocations,
  adversary activations, checkpoints, drain, shutdown — applied between
  rounds, each acknowledged (or rejected) as a structured service event;
* the simulation's **protocol events** stream straight into the
  :class:`~repro.serve.buffer.EventBuffer` through a
  :class:`~repro.obs.tracer.CallbackSink`, riding the same batched
  path to the pluggable sink;
* the **monitor suite** runs non-strict with a live verdict callback,
  so property violations appear in the stream the round they happen
  instead of only in a post-mortem summary;
* under the **sharded engine**, healing-log entries (worker deaths,
  heals, stabilizations, relocations sent to the fleet) are forwarded
  as ``service.heal`` events via the engine's incremental cursor.

One turn of the loop (:meth:`tick`) is: apply due commands, step one
round, forward heal events, snapshot if due, pump the buffer. The whole
service is single-threaded and deterministic — producer and consumer
are phases of the same turn — which is what lets the soak oracle demand
byte-identical output from two runs of the same command schedule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.obs.events import TRACE_SCHEMA
from repro.obs.instrument import ObservabilityConfig
from repro.obs.tracer import CallbackSink
from repro.serve.buffer import EventBuffer
from repro.serve.commands import (
    COMMAND_SCHEMA,
    Command,
    CommandError,
)
from repro.serve.sinks import ServeSink
from repro.sim.config import SimulationConfig
from repro.sim.stepper import ResumableStepper

#: The service-event taxonomy (beyond the protocol events of
#: :mod:`repro.obs.events`): type name -> one-line meaning. Everything
#: the serve loop itself injects into the stream uses one of these.
SERVICE_EVENTS: Dict[str, str] = {
    "service.command": "a command was applied (carries the command and its result)",
    "service.command_error": "a command was rejected (structured code + message)",
    "service.snapshot": "periodic state digest: entities, failures, ledger counters",
    "service.checkpoint": "operator-requested authoritative state digest",
    "service.heal": "one shard healing-log entry (sharded engine only)",
    "service.violation": "a monitored property failed this round (live verdict)",
    "service.drained": "an operator drain flushed the buffer to the sink",
    "service.stopped": "the loop ended (carries the reason)",
}


def serve_header(fingerprint: Optional[str] = None) -> Dict:
    """The header record opening every serve event stream."""
    header: Dict = {
        "kind": "serve-events",
        "schema": TRACE_SCHEMA,
        "command_schema": COMMAND_SCHEMA,
    }
    if fingerprint is not None:
        header["config_fingerprint"] = fingerprint
    return {"header": header}


class ServeService:
    """Drive one simulation as a command-consuming, event-streaming service.

    ``config`` is a normal :class:`~repro.sim.config.SimulationConfig`
    (its ``rounds`` is only the nominal horizon — the service runs until
    a shutdown command or ``max_rounds``). ``sink`` is any
    :class:`~repro.serve.sinks.ServeSink`; ``source`` any command source
    (``due(round) -> [(command, error), ...]``), or None for a
    command-less stream. Buffer shape and backpressure mirror
    :class:`~repro.serve.buffer.EventBuffer`.
    """

    def __init__(
        self,
        config: SimulationConfig,
        sink: ServeSink,
        source=None,
        engine: Optional[str] = None,
        batch_size: int = 64,
        buffer_capacity: int = 4096,
        backpressure: str = "block",
        snapshot_every: Optional[int] = 50,
        max_rounds: Optional[int] = None,
    ):
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError(
                f"snapshot_every must be positive or None, got {snapshot_every}"
            )
        if max_rounds is not None and max_rounds <= 0:
            raise ValueError(
                f"max_rounds must be positive or None, got {max_rounds}"
            )
        self.config = config
        self.sink = sink
        self.source = source
        self.snapshot_every = snapshot_every
        self.max_rounds = max_rounds
        self.buffer = EventBuffer(
            sink,
            capacity=buffer_capacity,
            batch_size=batch_size,
            policy=backpressure,
        )
        # Protocol events flow from the tracer into the same buffer the
        # service events use: one stream, one ordering, one sink.
        observability = ObservabilityConfig(
            metrics=True,
            trace_sink=CallbackSink(self.buffer.publish),
        )
        self.stepper = ResumableStepper(
            config, observability=observability, engine=engine
        )
        simulator = self.stepper.simulator
        self.metrics = simulator.obs.registry
        self.buffer.metrics = self.metrics
        # Live verdicts: never die on a violation, stream it instead.
        self.monitors = simulator.monitors
        if self.monitors is not None:
            self.monitors.strict = False
            self.monitors.on_violation = self._on_violation
        self.rounds_served = 0
        self.commands_applied = 0
        self.command_errors = 0
        self.violations_seen = 0
        self.heals_forwarded = 0
        self._heal_cursor = 0
        self._started = False
        self._stopped = False
        self._stop_reason: Optional[str] = None
        self._finished = False

    # ------------------------------------------------------------------
    # Stream plumbing
    # ------------------------------------------------------------------

    def _publish(self, record: Dict) -> None:
        self.buffer.publish(record)

    def _service_event(self, event_type: str, fields: Dict) -> None:
        assert event_type in SERVICE_EVENTS, event_type
        record: Dict = {
            "round": self.stepper.round_index,
            "type": event_type,
        }
        record.update(fields)
        self._publish(record)

    def start(self) -> None:
        """Write the stream header (idempotent; ``tick`` calls it)."""
        if not self._started:
            self._started = True
            self.sink.write_header(serve_header(self.config.fingerprint()))

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def tick(self) -> bool:
        """One service turn; returns False once the loop should end.

        Commands due at the current round apply first (a shutdown takes
        effect before the round it is scheduled at executes), then one
        protocol round runs, heal events and a due snapshot are
        published, and the buffer pumps complete batches to the sink.
        """
        self.start()
        if self._stopped:
            return False
        if self.max_rounds is not None and self.rounds_served >= self.max_rounds:
            self._stopped = True
            self._stop_reason = "max-rounds"
            return False
        self._apply_due_commands()
        if self._stopped:
            return False
        report = self.stepper.step()
        self.rounds_served += 1
        self._forward_heal_events()
        if (
            self.snapshot_every is not None
            and self.rounds_served % self.snapshot_every == 0
        ):
            self._publish_snapshot(report.round_index)
        self.buffer.pump()
        return True

    def run(self):
        """Serve until shutdown or ``max_rounds``; returns the summary."""
        while self.tick():
            pass
        return self.finish()

    def finish(self):
        """End the stream: stopped event, full drain, close (idempotent).

        Returns the run's :class:`~repro.sim.results.SimulationResult`
        (None on repeat calls). The drain-before-close ordering is the
        shutdown guarantee the property tests pin: every published event
        reaches the sink.
        """
        if self._finished:
            return None
        self._finished = True
        self.start()
        self._service_event(
            "service.stopped",
            {"reason": self._stop_reason or "finished", "rounds": self.rounds_served},
        )
        self.buffer.drain()
        result = self.stepper.summarize()
        self.sink.flush()
        self.sink.close()
        close = getattr(self.source, "close", None)
        if close is not None:
            close()
        return result

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def _apply_due_commands(self) -> None:
        if self.source is None:
            return
        for command, error in self.source.due(self.stepper.round_index):
            if error is not None:
                self._reject(error)
                continue
            try:
                self._apply_command(command)
            except CommandError as command_error:
                self._reject(command_error)
            if self._stopped:
                return

    def _reject(self, error: CommandError) -> None:
        self.command_errors += 1
        self.metrics.counter("serve.command_errors").inc()
        self._service_event("service.command_error", error.to_record())

    def _acknowledge(self, command: Command, result: Dict) -> None:
        self.commands_applied += 1
        self.metrics.counter("serve.commands").inc()
        fields: Dict = {"command": command.canonical()}
        fields.update(result)
        self._service_event("service.command", fields)

    def _apply_command(self, command: Command) -> None:
        name = command.name
        if name == "arrive":
            cell = self._require_cell(command.args["cell"])
            uid = self.stepper.arrive(cell)
            self._acknowledge(
                command, {"applied": uid is not None, "uid": uid}
            )
        elif name == "fail":
            self.stepper.fail(self._require_cell(command.args["cell"]))
            self._acknowledge(command, {"applied": True})
        elif name == "recover":
            self.stepper.recover(self._require_cell(command.args["cell"]))
            self._acknowledge(command, {"applied": True})
        elif name == "relocate":
            target = self._require_cell(command.args["target"])
            try:
                self.stepper.relocate_target(target)
            except ValueError as error:
                raise CommandError("bad-value", str(error))
            self._acknowledge(command, {"applied": True})
        elif name == "adversary":
            summary = self._activate_adversary(command.args["spec"])
            self._acknowledge(command, {"applied": True, **summary})
        elif name == "checkpoint":
            self._acknowledge(command, {"applied": True})
            self._publish_checkpoint()
        elif name == "drain":
            self._acknowledge(command, {"applied": True})
            # The event rides the drain it announces. It must not carry
            # delivered/pending counts — those depend on the batch shape,
            # and the stream is byte-identical across batch shapes;
            # ``produced`` is simulation-determined, so it may.
            self._service_event(
                "service.drained", {"produced": self.buffer.produced}
            )
            self.buffer.drain()
        else:
            assert name == "shutdown", name
            self._acknowledge(command, {"applied": True})
            self._stopped = True
            self._stop_reason = "shutdown"

    def _require_cell(self, cell):
        cid = tuple(cell)
        try:
            self.stepper.system.grid.require(cid)
        except Exception as error:
            raise CommandError("bad-value", str(error))
        return cid

    def _activate_adversary(self, spec: str) -> Dict:
        """Compile a campaign and splice it into the live injector.

        The compiled schedule is offset so round 0 of the script is the
        *current* round — activating ``regional_failure()`` at round 500
        plays the same storm the batch run plays from round 0.
        ``FaultInjector.splice`` composes it on top of whatever model is
        already running, the same way ``build_simulation`` does, and
        drops finished campaigns, so a service that plays thousands of
        them decides each round at the cost of the live ones.
        """
        from repro.adversary.scripts import compile_adversary

        try:
            campaign_config = replace(self.config, adversary=spec)
            compiled = compile_adversary(campaign_config)
        except (ValueError, KeyError) as error:
            raise CommandError("bad-value", f"adversary spec rejected: {error}")
        self.stepper.simulator.injector.splice(
            compiled.events, compiled.relocations, offset=self.stepper.round_index
        )
        return {
            "events": len(compiled.events),
            "relocations": len(compiled.relocations),
        }

    # ------------------------------------------------------------------
    # Derived stream events
    # ------------------------------------------------------------------

    def _on_violation(self, violation) -> None:
        self.violations_seen += 1
        self._service_event(
            "service.violation",
            {
                "violation_round": violation.round_index,
                "property": violation.property_name,
                "detail": violation.detail,
            },
        )

    def _forward_heal_events(self) -> None:
        events_since = getattr(
            self.stepper.simulator.engine, "healing_events_since", None
        )
        if events_since is None:
            return
        entries, self._heal_cursor = events_since(self._heal_cursor)
        for entry in entries:
            self.heals_forwarded += 1
            self.metrics.counter("serve.heals").inc()
            self._service_event("service.heal", {"entry": entry})

    def _publish_snapshot(self, round_index: int) -> None:
        """Periodic ledger snapshot.

        Deliberately simulation-side only (no buffer/sink stats): the
        snapshot must be byte-identical across sinks and batch shapes,
        which sink-side counters are not.
        """
        system = self.stepper.system
        self._service_event(
            "service.snapshot",
            {
                "snapshot_round": round_index,
                "entities": system.entity_count(),
                "failed_cells": len(system.failed_cells()),
                "produced": system.total_produced,
                "consumed": self.stepper.simulator.meter.total_consumed,
                "violations": self.violations_seen,
            },
        )

    def _publish_checkpoint(self) -> None:
        from repro.testing.differential import state_digest

        self._service_event(
            "service.checkpoint",
            {
                "digest": state_digest(self.stepper.system),
                "config_fingerprint": self.config.fingerprint(),
            },
        )

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The service ledger (buffer conservation stats included)."""
        return {
            "rounds_served": self.rounds_served,
            "commands_applied": self.commands_applied,
            "command_errors": self.command_errors,
            "violations": self.violations_seen,
            "heals_forwarded": self.heals_forwarded,
            "stop_reason": self._stop_reason,
            "buffer": self.buffer.stats(),
        }


def build_service(
    config: SimulationConfig,
    sink: ServeSink,
    schedule=None,
    **options,
) -> ServeService:
    """Convenience: a service over a scripted ``[(round, command), ...]``.

    The test harness's front door — ``schedule`` entries may be raw
    protocol objects (dicts) or validated :class:`Command` instances.
    """
    from repro.serve.commands import ScriptedCommandSource

    source = ScriptedCommandSource(schedule) if schedule is not None else None
    return ServeService(config, sink, source=source, **options)
