"""Per-message network latency models, in round periods.

One paper round is four timed turns, one period apart; a message sent at
a turn must arrive by the next turn to be used (see
:mod:`repro.netsim.engine`). A model draws each message's latency from
the engine's seeded delay stream, so runs are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.netsim.message import EntityTransferMessage, Message


class DelayModel:
    """Interface: sample the latency of one message."""

    def sample(self, message: Message, rng: random.Random) -> float:
        """Draw this message's latency."""
        raise NotImplementedError

    @property
    def bound(self) -> float:
        """An upper bound on any sampled delay (the protocol's Delta)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedDelay(DelayModel):
    """Every message takes exactly ``delay`` periods."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be nonnegative, got {self.delay}")

    def sample(self, message: Message, rng: random.Random) -> float:
        return self.delay

    @property
    def bound(self) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Latency uniform in ``[lo, hi]`` — jitter without reordering bias.

    Distinct messages get independent samples, so two messages on the
    same link may be reordered, which the timed rounds must (and do)
    tolerate.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")

    def sample(self, message: Message, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)

    @property
    def bound(self) -> float:
        return self.hi


@dataclass(frozen=True)
class HeavyTailDelay(DelayModel):
    """Mostly fast, occasionally (probability ``tail_p``) very slow.

    ``bound`` reports the *nominal* bound ``hi`` — tail samples exceed
    it deliberately, modeling a network whose engineered delay bound is
    occasionally violated. Used by the late-delivery degradation tests.
    """

    lo: float
    hi: float
    tail_p: float
    tail_factor: float = 5.0

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if not 0 <= self.tail_p <= 1:
            raise ValueError(f"tail_p must be a probability, got {self.tail_p}")

    def sample(self, message: Message, rng: random.Random) -> float:
        base = rng.uniform(self.lo, self.hi)
        if rng.random() < self.tail_p:
            return base * self.tail_factor
        return base

    @property
    def bound(self) -> float:
        return self.hi


@dataclass(frozen=True)
class LossyDelay(DelayModel):
    """Instant delivery, except that each advert is lost with probability
    ``drop`` (an infinite delay: it never arrives).

    The paper assumes reliable delivery, yet the protocol reads every
    advert's *absence* conservatively: a missing ``RouteAdvert`` is
    ``dist = infinity`` (at worst a detour), a missing
    ``OccupancyAdvert`` keeps the sender out of ``NEPrev`` (at worst it
    waits a round), a missing ``GrantAdvert`` means no permission (at
    worst nobody moves). Dropping adverts at any rate can therefore cost
    throughput, never safety.

    ``EntityTransferMessage`` is exempt and draws no coin: it is the
    bookkeeping of a *physical* hand-off (the entity already straddles
    the boundary), not soft state. Dropping it would make matter vanish,
    which no network fault can do. ``benchmarks/bench_lossy.py`` sweeps
    the drop rate: monitors stay clean, conservation holds, throughput
    decays to zero. ``bound`` is the nominal 0: a delivered message
    arrives at once, a lost advert never does.
    """

    drop: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {self.drop}")

    def sample(self, message: Message, rng: random.Random) -> float:
        if isinstance(message, EntityTransferMessage):
            return 0.0
        return math.inf if rng.random() < self.drop else 0.0

    @property
    def bound(self) -> float:
        return 0.0
