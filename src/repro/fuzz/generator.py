"""Seed-to-scenario generation: one integer determines everything.

:func:`generate_scenario` maps a seed to a complete, *valid*
:class:`Scenario`: a :class:`~repro.sim.config.SimulationConfig` (grid,
parameters, workload, source/token policies, fault schedule, engine
choice, horizon) plus a :class:`NetSpec` with the message-passing
adversary knobs (advert loss, latency jitter). Parameters are sampled
*near their admissibility boundaries* — ``v`` up to ``l`` and
``rs + l`` close to 1 — because the paper's safety margins are thinnest
exactly there (the Safe predicate separates entities by ``l + rs``, and
Lemma 4's gap argument consumes the whole ``1 - l - rs`` slack).

The generator never emits an invalid configuration: every constraint
the config layer enforces (``v <= l``, ``rs + l < 1``, corridor +
recovery-fault exclusivity) is respected by construction, so every
violation an oracle reports is a real protocol/implementation finding,
not a malformed input. Scenarios serialize to/from plain dicts — the
shrinker's repro artifacts embed them — and carry a stable fingerprint
for campaign bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Dict

from repro.core.params import Parameters
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction
from repro.multiflow.commodities import Commodity
from repro.multiflow.workload import WORKLOAD_PROFILES
from repro.sim.config import FaultSpec, SimulationConfig

#: Scenario-space version: bump when the sampling distribution changes,
#: so committed corpus entries and nightly seed ranges can detect that
#: seed N no longer means the same scenario. Version 2 added
#: ``"vectorized"`` to the engine pins (which shifts every draw after
#: the engine choice, remapping the whole seed space). Version 3 added
#: ``"sharded"`` with a pinned district count (and forces the
#: round-robin token policy for sharded pins — the random policy's
#: shared RNG stream cannot be split across district processes).
#: Version 4 reserves the *first* draw for a multi-commodity branch
#: (~25% of seeds): those scenarios carry ``commodities=`` + a workload
#: profile instead of a corridor/free-form layout, pin only the engines
#: that support multi-commodity systems (reference/incremental), and
#: disable the network legs (the netsim oracle models the single-flow
#: advert protocol). The leading draw remaps the whole seed space.
#: Version 5 splits the first draw three ways: < 0.25 stays the
#: multi-commodity arm, [0.25, 0.55) is the *adversary* arm (~30% of
#: seeds draw a named campaign class from
#: ``repro.adversary.scripts.ADVERSARIES`` — regional failure waves,
#: healing partitions, rotating targets, stabilization-frequency
#: oscillators, token-spacing pressure, asynchronous timed-round
#: jitter), and the rest is the unchanged standard arm. The new
#: ``adversary``/``jitter`` config fields also change every config
#: serialization, so all corpus fingerprints migrate.
GENERATOR_VERSION = 5

#: Mixed into the seed so the generator's stream is independent of the
#: simulation streams derived from ``config.seed`` (which equals the
#: scenario seed — scenarios must be reproducible from one integer).
_SALT = 0xF022


@dataclass(frozen=True)
class NetSpec:
    """Message-passing adversary knobs for the ``netsim`` oracle.

    Each knob drives one leg of :class:`~repro.netsim.engine.TimedEngine`
    on the scenario's workload: ``drop`` is the per-advert loss
    probability of a :class:`~repro.netsim.delay.LossyDelay`; ``jitter``
    the upper bound of a uniform per-message latency, in round periods
    (:class:`~repro.netsim.delay.UniformDelay`). Both default to off
    (``0.0``), which makes the netsim oracle a no-op — the shrinker
    exploits that to discard the network leg when it is not load-bearing.
    """

    drop: float = 0.0
    jitter: float = 0.0
    rounds: int = 60
    """Horizon for the network legs (decoupled from ``config.rounds``
    because the lossy leg needs enough rounds to see deliveries even at
    high drop rates)."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop <= 1.0:
            raise ValueError(f"drop must be in [0, 1], got {self.drop}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be nonnegative, got {self.jitter}")
        if self.rounds < 0:
            raise ValueError(f"net rounds must be nonnegative, got {self.rounds}")

    @property
    def enabled(self) -> bool:
        return self.rounds > 0 and (self.drop > 0.0 or self.jitter > 0.0)

    def to_dict(self) -> Dict:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "NetSpec":
        return cls(**data)


@dataclass(frozen=True)
class Scenario:
    """One fuzz input: a simulation config plus network adversary knobs."""

    seed: int
    config: SimulationConfig
    net: NetSpec = field(default_factory=NetSpec)

    def to_dict(self) -> Dict:
        """JSON-ready form (stamps ``generator_version``); inverse of
        :meth:`from_dict`."""
        return {
            "generator_version": GENERATOR_VERSION,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "net": self.net.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        return cls(
            seed=data["seed"],
            config=SimulationConfig.from_dict(data["config"]),
            net=NetSpec.from_dict(data.get("net", {})),
        )

    def fingerprint(self) -> str:
        """Stable 16-hex digest over the canonical dict form."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _sample_params(rng: random.Random) -> Parameters:
    """Admissible parameters biased toward the boundaries.

    ``l`` spans coarse to fine; ``rs`` eats a sampled fraction of the
    remaining ``1 - l`` slack (up to 90% — near the ``rs + l < 1``
    boundary); ``v`` is a fraction of ``l`` including the paper's
    ``v = l`` extreme. Values are rounded so scenario dicts stay
    readable and float round-trips exact.
    """
    l = rng.choice([0.2, 0.25, 0.4, 0.5])
    slack_fraction = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])
    rs = round((1.0 - l) * slack_fraction * 0.2, 4)
    if rng.random() < 0.25:  # push toward the rs + l < 1 boundary
        rs = round((1.0 - l) * 0.9, 4)
    v = round(l * rng.choice([0.4, 0.6, 0.8, 1.0]), 4)
    return Parameters(l=l, rs=rs, v=v)


def _sample_source_policy(rng: random.Random) -> str:
    return rng.choice(
        [
            "eager",
            "eager",
            "eager",
            "silent",
            f"bernoulli:{rng.choice(['0.2', '0.5', '0.8'])}",
            f"capped:{rng.randint(1, 10)}",
        ]
    )


def _sample_token_policy(rng: random.Random) -> str:
    return rng.choice(["roundrobin", "roundrobin", "random", "sticky"])


def _sample_commodities(rng: random.Random, n: int) -> tuple:
    """2-3 commodities with pairwise-distinct targets and 1-2 sources each.

    Sources are drawn from the non-target cells, so every commodity is
    valid by construction (``target not in sources``); sources *may*
    overlap between commodities — the residency rule arbitrates those
    contended injection points at runtime.
    """
    cells = [(i, j) for i in range(n) for j in range(n)]
    count = rng.randint(2, 3)
    targets = rng.sample(cells, count)
    others = [cell for cell in cells if cell not in targets]
    return tuple(
        Commodity(
            name=f"c{index}",
            target=target,
            sources=tuple(rng.sample(others, rng.randint(1, 2))),
        )
        for index, target in enumerate(targets)
    )


def _generate_multiflow_scenario(seed: int, rng: random.Random) -> Scenario:
    """The multi-commodity arm of the v4 scenario space.

    Samples a :class:`~repro.multiflow.commodities.Commodity` table plus
    a workload profile, pins the engines that support multi-commodity
    systems (``None``/reference/incremental), and leaves the network
    legs disabled — the netsim oracle models single-flow adverts.
    """
    n = rng.randint(4, 6)
    params = _sample_params(rng)
    rounds = rng.randint(40, 100)
    commodities = _sample_commodities(rng, n)
    workload = rng.choice(sorted(WORKLOAD_PROFILES))
    token_policy = _sample_token_policy(rng)
    engine = rng.choice([None, "reference", "incremental"])
    faulting = rng.random() < 0.45
    fault = (
        FaultSpec(
            pf=round(rng.uniform(0.01, 0.08), 4),
            pr=round(rng.uniform(0.05, 0.4), 4),
            protect_target=rng.random() < 0.7,
        )
        if faulting
        else FaultSpec()
    )
    config = SimulationConfig(
        grid_width=n,
        params=params,
        rounds=rounds,
        commodities=commodities,
        workload=workload,
        token_policy=token_policy,
        fault=fault,
        seed=seed,
        engine=engine,
    )
    return Scenario(seed=seed, config=config, net=NetSpec())


def _generate_adversary_scenario(
    seed: int, rng: random.Random, forced: str = None
) -> Scenario:
    """The adversary arm of the v5 scenario space.

    Draws a named campaign class (or uses ``forced``, the
    ``fuzz run --adversary`` path), asks the class for a canonical
    parameter spec, and lets it shape the workload (``token_starvation``
    rings the merge cell with eager sources), pin config fields
    (``async_jitter`` pins ``engine="timed"`` + a jitter bound), and
    restrict the engine choice (``rotating_target`` draws only None,
    reference or incremental; every engine honours relocation, but
    widening the draw would remap the seed stream and the corpus).
    Background Bernoulli churn stays off — the ``stabilization-bound``
    oracle needs the *scripted* perturbation to be the last one — and
    the network legs stay disabled, as in the multi-commodity arm.
    """
    from repro.adversary.scripts import ADVERSARIES, parse_adversary_spec

    name = forced if forced is not None else rng.choice(sorted(ADVERSARIES))
    script = ADVERSARIES[name]
    spec = script.sample_spec(rng)
    _, spec_params = parse_adversary_spec(spec)
    n = rng.randint(4, 6)
    params = _sample_params(rng)
    rounds = rng.randint(40, 90)
    source_policy = _sample_source_policy(rng)
    token_policy = _sample_token_policy(rng)
    engine = script.engine_pins(rng)
    overrides = script.config_overrides(rng)
    workload = script.shape_workload(rng, n, n, spec_params)
    if workload is None:
        cells = [(i, j) for i in range(n) for j in range(n)]
        tid = rng.choice(cells)
        others = [cell for cell in cells if cell != tid]
        workload = {"tid": tid, "sources": tuple(rng.sample(others, rng.randint(1, 3)))}
    fields = dict(
        grid_width=n,
        params=params,
        rounds=rounds,
        tid=workload["tid"],
        sources=workload["sources"],
        source_policy=source_policy,
        token_policy=token_policy,
        fault=FaultSpec(),
        seed=seed,
        engine=engine,
        adversary=spec,
    )
    fields.update(overrides)
    return Scenario(seed=seed, config=SimulationConfig(**fields), net=NetSpec())


def generate_scenario(seed: int, adversary: str = None) -> Scenario:
    """The deterministic seed → scenario map (total: every seed is valid).

    ``adversary`` forces the adversary arm with the given class name
    (the ``fuzz run --adversary <class>`` campaign mode); the default
    ``None`` samples the full v5 space.
    """
    rng = random.Random((seed & 0xFFFFFFFF) ^ _SALT)
    roll = rng.random()
    if adversary is not None:
        return _generate_adversary_scenario(seed, rng, adversary)
    if roll < 0.25:  # v4: the multi-commodity arm
        return _generate_multiflow_scenario(seed, rng)
    if roll < 0.55:  # v5: the adversary arm
        return _generate_adversary_scenario(seed, rng)
    n = rng.randint(3, 6)
    params = _sample_params(rng)
    rounds = rng.randint(20, 80)
    source_policy = _sample_source_policy(rng)
    token_policy = _sample_token_policy(rng)
    engine = rng.choice([None, "reference", "incremental", "vectorized", "sharded"])
    shards = None
    if engine == "sharded":
        # Pin the district count explicitly (row-band partitioning needs
        # shards <= grid height) so the scenario is self-contained; the
        # random token policy is invalid for sharded runs by construction.
        shards = rng.randint(1, min(4, n))
        if token_policy == "random":
            token_policy = "roundrobin"
    faulting = rng.random() < 0.5
    fault = (
        FaultSpec(
            pf=round(rng.uniform(0.01, 0.1), 4),
            pr=round(rng.uniform(0.05, 0.4), 4),
            protect_target=rng.random() < 0.3,
        )
        if faulting
        else FaultSpec()
    )
    net = (
        NetSpec(
            drop=round(rng.choice([0.1, 0.3, 0.6, 0.9]), 4),
            jitter=rng.choice([0.0, 0.0, 0.4, 0.9]),
            rounds=rng.randint(30, 80),
        )
        if rng.random() < 0.4
        else NetSpec()
    )

    if rng.random() < 0.6:  # corridor workload
        turns = min(rng.choice([0, 0, 1, 2]), n - 2)
        if turns:
            path = turns_path((0, 0), n, turns)
        else:
            path = straight_path((rng.randrange(n), 0), Direction.NORTH, n)
        config = SimulationConfig(
            grid_width=n,
            params=params,
            rounds=rounds,
            path=path.cells,
            source_policy=source_policy,
            token_policy=token_policy,
            fault=fault,
            seed=seed,
            engine=engine,
            shards=shards,
            # A recovery model resurrects failed cells, which config
            # validation rejects for a pre-failed complement.
            fail_complement=(not faulting) and rng.random() < 0.5,
        )
    else:  # free-form workload: random target, 1-3 sources
        cells = [(i, j) for i in range(n) for j in range(n)]
        tid = rng.choice(cells)
        others = [cell for cell in cells if cell != tid]
        sources = tuple(rng.sample(others, rng.randint(1, 3)))
        config = SimulationConfig(
            grid_width=n,
            params=params,
            rounds=rounds,
            tid=tid,
            sources=sources,
            source_policy=source_policy,
            token_policy=token_policy,
            fault=fault,
            seed=seed,
            engine=engine,
            shards=shards,
        )
    return Scenario(seed=seed, config=config, net=net)
