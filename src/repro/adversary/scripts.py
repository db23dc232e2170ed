"""Named adversary classes and their compilation to concrete schedules.

An :class:`AdversaryScript` is a *deterministic, seedable* strategy: given
a :class:`~repro.sim.config.SimulationConfig` whose ``adversary`` field
names it (optionally with parameters, e.g. ``"regional_failure:waves=2,
size=3"``), it compiles to a :class:`CompiledAdversary` — an explicit
:class:`~repro.faults.schedule.FaultEvent` list plus scheduled target
relocations — that :func:`repro.sim.simulator.build_simulation` feeds into
the fault injector. Compilation derives all randomness from
``derive_rng(config.seed, "adversary")``, so the same config always plays
the same campaign, on any engine.

The registry deliberately mirrors ``ENGINES``/``ORACLES``: a flat
name -> class dict, lazily imported by config validation, diffed against
docs/fuzzing.md by tests/test_docs.py.

Classes
-------
``regional_failure``
    Correlated waves: a contiguous rectangular region fails at once and
    recovers at once, several times.
``partition_heal``
    A full row/column wall fails (cutting the grid in two), then heals.
``rotating_target``
    The *target itself* relocates mid-run (self-stabilization with mobile
    destinations, cf. arXiv:0708.0909).
``oscillator``
    One cell near the target fail/recovers cyclically at a period tuned
    to the grid's stabilization frequency (~width+height rounds).
``token_starvation``
    No faults at all: a merge cell is kept under configurable
    token-spacing pressure (2-4 eager neighbors contending for one
    rotating token, cf. arXiv:0908.1797).
``async_jitter``
    Promotes the timed-round asynchronous engine to a campaign
    dimension: the run executes on ``engine="timed"`` with per-message
    jitter <= one period, plus one mid-run fail/recover perturbation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.faults.schedule import FaultEvent
from repro.grid.topology import CellId
from repro.sim.seeding import derive_rng

Params = Dict[str, float]


# --------------------------------------------------------------------------
# Spec strings
# --------------------------------------------------------------------------

def parse_adversary_spec(spec: str) -> Tuple[str, Params]:
    """Split ``"name"`` / ``"name:k=v,k=v"`` into ``(name, params)``.

    Values parse as int when possible, float otherwise. Raises
    ``ValueError`` on malformed specs; unknown names/keys are rejected by
    :func:`validate_adversary_spec` (which knows the registry).
    """
    name, _, tail = spec.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"empty adversary name in spec {spec!r}")
    params: Params = {}
    if tail:
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"malformed adversary parameter {item!r} in spec {spec!r} "
                    "(expected key=value)"
                )
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"adversary parameter {key!r} in spec {spec!r} must "
                        f"be numeric, got {value!r}"
                    ) from None
    return name, params


def format_adversary_spec(name: str, params: Params) -> str:
    """The canonical spec string: sorted keys, defaults omitted."""
    defaults = ADVERSARIES[name].defaults
    kept = {
        key: value
        for key, value in sorted(params.items())
        if defaults.get(key) != value
    }
    if not kept:
        return name
    rendered = ",".join(
        f"{key}={int(value) if float(value).is_integer() else value}"
        for key, value in kept.items()
    )
    return f"{name}:{rendered}"


# --------------------------------------------------------------------------
# Compilation target
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledAdversary:
    """What a script compiles to: timed fault events + target relocations."""

    events: Tuple[FaultEvent, ...] = ()
    relocations: Tuple[Tuple[int, CellId], ...] = ()
    """Sorted ``(round_index, new_target)`` pairs applied by the injector."""

    @property
    def last_perturbation_round(self) -> int:
        """The round of the final scripted disturbance (-1 when none).

        The ``stabilization-bound`` oracle starts its Lemma 6 watch here.
        """
        rounds = [e.round_index for e in self.events]
        rounds.extend(r for r, _ in self.relocations)
        return max(rounds, default=-1)


# --------------------------------------------------------------------------
# Geometry helpers (pure functions of the config, no Grid object needed)
# --------------------------------------------------------------------------

def _grid_dims(config) -> Tuple[int, int]:
    return config.grid_width, config.grid_height or config.grid_width

def _target_cell(config) -> CellId:
    return config.path[-1] if config.path is not None else config.tid


def _workload_cells(config) -> List[CellId]:
    """Cells the adversary may touch: alive workload cells minus target.

    In fail-complement corridor mode only the path is alive, so victims
    are restricted to path cells (failing the pre-failed complement would
    be a no-op and recovering it would resurrect the corridor walls).
    """
    target = _target_cell(config)
    if config.path is not None and config.fail_complement:
        cells: Iterable[CellId] = config.path
    else:
        width, height = _grid_dims(config)
        cells = ((i, j) for i in range(width) for j in range(height))
    return sorted(c for c in cells if tuple(c) != tuple(target))


def _neighbors(cell: CellId, width: int, height: int) -> List[CellId]:
    x, y = cell
    candidates = ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
    return [
        (i, j) for i, j in candidates if 0 <= i < width and 0 <= j < height
    ]


def _pick_victim(config, rng: random.Random) -> Optional[CellId]:
    """One cell to perturb: prefer a non-source neighbor of the target."""
    candidates = _workload_cells(config)
    sources = {tuple(s) for s in config.sources}
    width, height = _grid_dims(config)
    near = [
        c
        for c in _neighbors(_target_cell(config), width, height)
        if c in candidates and tuple(c) not in sources
    ]
    pool = near or [c for c in candidates if tuple(c) not in sources] or candidates
    return rng.choice(pool) if pool else None


# --------------------------------------------------------------------------
# Script base class
# --------------------------------------------------------------------------

class AdversaryScript:
    """One named adversary class. Subclasses are stateless singletons."""

    name: str = ""
    description: str = ""
    defaults: Params = {}

    # -- campaign compilation -------------------------------------------
    def compile(self, config, params: Params) -> CompiledAdversary:
        """Pure: ``(config, params) -> CompiledAdversary``. Every fail it
        schedules must recover before ``config.rounds`` (incomplete waves
        are dropped, not truncated)."""
        raise NotImplementedError

    def validate(self, config, params: Params) -> None:
        """Reject configs the class cannot play against (raise ValueError)."""
        for key in params:
            if key not in self.defaults:
                raise ValueError(
                    f"adversary {self.name!r} does not take parameter "
                    f"{key!r}; available: {sorted(self.defaults)}"
                )

    # -- generator integration ------------------------------------------
    def sample_spec(self, rng: random.Random) -> str:
        """A random (but canonical) spec string for the fuzz generator."""
        return self.name

    def config_overrides(self, rng: random.Random) -> Dict:
        """Config fields the class pins (e.g. engine/jitter/token policy)."""
        return {}

    def engine_pins(self, rng: random.Random) -> Optional[str]:
        """The engine the generator pins for this class (None = deferred)."""
        return rng.choice([None, "reference", "incremental", "vectorized"])

    def shape_workload(
        self, rng: random.Random, width: int, height: int, params: Params
    ) -> Optional[Dict]:
        """Optionally dictate ``{"tid": ..., "sources": ...}``."""
        return None

    # -- shrinker integration -------------------------------------------
    def shrink_specs(self, params: Params) -> Iterator[Tuple[Params, str]]:
        """Candidate parameter reductions, most aggressive first."""
        return iter(())


# --------------------------------------------------------------------------
# The six classes
# --------------------------------------------------------------------------

class RegionalFailure(AdversaryScript):
    name = "regional_failure"
    description = (
        "correlated failure waves: a contiguous rectangular region fails "
        "at once and recovers at once, 1-3 times per run"
    )
    defaults: Params = {"waves": 2, "size": 2}

    def compile(self, config, params: Params) -> CompiledAdversary:
        rng = derive_rng(config.seed, "adversary")
        waves = int(params.get("waves", self.defaults["waves"]))
        size = int(params.get("size", self.defaults["size"]))
        width, height = _grid_dims(config)
        candidates = set(map(tuple, _workload_cells(config)))
        gap = max(6, config.rounds // (waves + 1))
        duration = max(3, gap // 2)
        events: List[FaultEvent] = []
        for wave in range(waves):
            start = wave * gap + 2
            stop = start + duration
            if stop >= config.rounds:
                break  # drop incomplete waves: every fail must heal
            x0 = rng.randrange(max(1, width - size + 1))
            y0 = rng.randrange(max(1, height - size + 1))
            region = sorted(
                (i, j)
                for i in range(x0, min(x0 + size, width))
                for j in range(y0, min(y0 + size, height))
                if (i, j) in candidates
            )
            for cell in region:
                events.append(FaultEvent(start, cell, "fail"))
                events.append(FaultEvent(stop, cell, "recover"))
        return CompiledAdversary(events=tuple(events))

    def sample_spec(self, rng: random.Random) -> str:
        return format_adversary_spec(
            self.name,
            {"waves": rng.randint(1, 3), "size": rng.randint(1, 3)},
        )

    def shrink_specs(self, params: Params) -> Iterator[Tuple[Params, str]]:
        waves = int(params.get("waves", self.defaults["waves"]))
        size = int(params.get("size", self.defaults["size"]))
        if waves > 1:
            yield {**params, "waves": waves - 1}, "fewer waves"
        if size > 1:
            yield {**params, "size": size - 1}, "smaller region"


class PartitionHeal(AdversaryScript):
    name = "partition_heal"
    description = (
        "a full grid row or column fails as a wall (partitioning the "
        "grid), then heals; safety must hold throughout, routing must "
        "re-stabilize after the heal"
    )
    defaults: Params = {"axis": 0}

    def compile(self, config, params: Params) -> CompiledAdversary:
        rng = derive_rng(config.seed, "adversary")
        axis = int(params.get("axis", self.defaults["axis"]))
        width, height = _grid_dims(config)
        target = tuple(_target_cell(config))
        candidates = set(map(tuple, _workload_cells(config)))
        if axis == 0:
            cuts = [i for i in range(width) if i != target[0]]
        else:
            cuts = [j for j in range(height) if j != target[1]]
        if not cuts:
            return CompiledAdversary()
        cut = rng.choice(cuts)
        if axis == 0:
            wall = [(cut, j) for j in range(height)]
        else:
            wall = [(i, cut) for i in range(width)]
        wall = sorted(c for c in wall if c in candidates)
        down = max(1, config.rounds // 4)
        heal = min(config.rounds - 1, down + max(4, width + height))
        if not wall or heal <= down:
            return CompiledAdversary()
        from repro.faults.schedule import partition_events

        return CompiledAdversary(events=tuple(partition_events(wall, down, heal)))

    def sample_spec(self, rng: random.Random) -> str:
        return format_adversary_spec(self.name, {"axis": rng.choice([0, 1])})


class RotatingTarget(AdversaryScript):
    name = "rotating_target"
    description = (
        "the target cell itself relocates 1-3 times mid-run; routing must "
        "re-stabilize onto each new destination"
    )
    defaults: Params = {"moves": 2}

    def compile(self, config, params: Params) -> CompiledAdversary:
        rng = derive_rng(config.seed, "adversary")
        moves = int(params.get("moves", self.defaults["moves"]))
        sources = {tuple(s) for s in config.sources}
        candidates = [
            c for c in _workload_cells(config) if tuple(c) not in sources
        ]
        gap = config.rounds // (moves + 1)
        if gap < 1:
            return CompiledAdversary()
        current = tuple(_target_cell(config))
        relocations: List[Tuple[int, CellId]] = []
        for move in range(moves):
            when = (move + 1) * gap
            if when >= config.rounds:
                break
            choices = [c for c in candidates if tuple(c) != current]
            if not choices:
                break
            dest = rng.choice(choices)
            relocations.append((when, dest))
            current = tuple(dest)
        return CompiledAdversary(relocations=tuple(relocations))

    def validate(self, config, params: Params) -> None:
        super().validate(config, params)
        if config.tid is None:
            raise ValueError(
                "adversary 'rotating_target' needs an explicit tid workload "
                "(corridor paths encode the target in their geometry)"
            )
        if config.fault.enabled:
            raise ValueError(
                "adversary 'rotating_target' cannot be combined with a "
                "Bernoulli fault model (a relocation destination could be "
                "failed at relocation time)"
            )

    def sample_spec(self, rng: random.Random) -> str:
        return format_adversary_spec(self.name, {"moves": rng.randint(1, 3)})

    def engine_pins(self, rng: random.Random) -> Optional[str]:
        return rng.choice([None, "reference", "incremental"])

    def shrink_specs(self, params: Params) -> Iterator[Tuple[Params, str]]:
        moves = int(params.get("moves", self.defaults["moves"]))
        if moves > 1:
            yield {**params, "moves": moves - 1}, "fewer relocations"


class Oscillator(AdversaryScript):
    name = "oscillator"
    description = (
        "one cell near the target fail/recovers cyclically at a period "
        "tuned to the measured stabilization frequency (~width+height "
        "rounds), probing repeated re-stabilization"
    )
    defaults: Params = {"cycles": 3, "period": 0}

    def compile(self, config, params: Params) -> CompiledAdversary:
        rng = derive_rng(config.seed, "adversary")
        cycles = int(params.get("cycles", self.defaults["cycles"]))
        width, height = _grid_dims(config)
        period = int(params.get("period", 0)) or (width + height)
        victim = _pick_victim(config, rng)
        if victim is None:
            return CompiledAdversary()
        half = max(2, period // 2)
        events: List[FaultEvent] = []
        for cycle in range(cycles):
            down = 2 + cycle * period
            up = down + half
            if up >= config.rounds:
                break
            events.append(FaultEvent(down, victim, "fail"))
            events.append(FaultEvent(up, victim, "recover"))
        return CompiledAdversary(events=tuple(events))

    def sample_spec(self, rng: random.Random) -> str:
        return format_adversary_spec(self.name, {"cycles": rng.randint(2, 4)})

    def shrink_specs(self, params: Params) -> Iterator[Tuple[Params, str]]:
        cycles = int(params.get("cycles", self.defaults["cycles"]))
        period = int(params.get("period", self.defaults["period"]))
        if cycles > 1:
            yield {**params, "cycles": cycles - 1}, "fewer cycles"
        if period:
            yield {**params, "period": period * 2}, "lower frequency"


class TokenStarvation(AdversaryScript):
    name = "token_starvation"
    description = (
        "no faults: 2-4 eager sources ring the merge cell ahead of the "
        "target, contending for one rotating token; the paired oracle "
        "asserts roundrobin rotation never parks or starves"
    )
    defaults: Params = {"pressure": 3}

    def compile(self, config, params: Params) -> CompiledAdversary:
        return CompiledAdversary()

    def validate(self, config, params: Params) -> None:
        super().validate(config, params)
        if config.token_policy != "roundrobin":
            raise ValueError(
                "adversary 'token_starvation' tests the roundrobin fairness "
                f"claim; token_policy must be 'roundrobin', got "
                f"{config.token_policy!r}"
            )

    def sample_spec(self, rng: random.Random) -> str:
        return format_adversary_spec(self.name, {"pressure": rng.randint(2, 4)})

    def config_overrides(self, rng: random.Random) -> Dict:
        return {"token_policy": "roundrobin", "source_policy": "eager"}

    def engine_pins(self, rng: random.Random) -> Optional[str]:
        return rng.choice([None, "reference", "incremental"])

    def shape_workload(
        self, rng: random.Random, width: int, height: int, params: Params
    ) -> Optional[Dict]:
        pressure = int(params.get("pressure", self.defaults["pressure"]))
        tid = (width // 2, height // 2)
        ring = sorted(_neighbors(tid, width, height))
        return {"tid": tid, "sources": tuple(ring[:pressure])}

    def shrink_specs(self, params: Params) -> Iterator[Tuple[Params, str]]:
        pressure = int(params.get("pressure", self.defaults["pressure"]))
        if pressure > 2:
            yield {**params, "pressure": pressure - 1}, "less pressure"


class AsyncJitter(AdversaryScript):
    name = "async_jitter"
    description = (
        "the run executes on the timed-round asynchronous engine with "
        "per-message jitter <= one round period, plus one mid-run "
        "fail/recover perturbation; bounded delay must be execution-"
        "identical to the synchronous model"
    )
    defaults: Params = {}

    def compile(self, config, params: Params) -> CompiledAdversary:
        rng = derive_rng(config.seed, "adversary")
        if config.rounds < 9:
            return CompiledAdversary()
        victim = _pick_victim(config, rng)
        if victim is None:
            return CompiledAdversary()
        down = config.rounds // 3
        up = min(config.rounds - 1, 2 * config.rounds // 3)
        if up <= down:
            return CompiledAdversary()
        return CompiledAdversary(
            events=(
                FaultEvent(down, victim, "fail"),
                FaultEvent(up, victim, "recover"),
            )
        )

    def validate(self, config, params: Params) -> None:
        super().validate(config, params)
        if config.engine != "timed":
            raise ValueError(
                "adversary 'async_jitter' runs on the timed-round engine; "
                f"set engine='timed', got {config.engine!r}"
            )

    def config_overrides(self, rng: random.Random) -> Dict:
        return {
            "engine": "timed",
            "jitter": rng.choice([0.25, 0.5, 0.75, 1.0]),
        }

    def engine_pins(self, rng: random.Random) -> Optional[str]:
        return "timed"


# --------------------------------------------------------------------------
# Registry + config-facing entry points
# --------------------------------------------------------------------------

ADVERSARIES: Dict[str, AdversaryScript] = {
    script.name: script
    for script in (
        RegionalFailure(),
        PartitionHeal(),
        RotatingTarget(),
        Oscillator(),
        TokenStarvation(),
        AsyncJitter(),
    )
}


def validate_adversary_spec(spec: str, config) -> None:
    """Config-validation hook: parse, resolve, and class-validate."""
    name, params = parse_adversary_spec(spec)
    script = ADVERSARIES.get(name)
    if script is None:
        raise ValueError(
            f"unknown adversary {name!r}; available: {sorted(ADVERSARIES)}"
        )
    script.validate(config, params)


def compile_adversary(config) -> CompiledAdversary:
    """Compile ``config.adversary`` (assumed validated) to its schedule."""
    name, params = parse_adversary_spec(config.adversary)
    return ADVERSARIES[name].compile(config, params)
