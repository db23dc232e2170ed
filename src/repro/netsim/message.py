"""Wire messages of the message-passing implementation.

One paper round decomposes into four timed turns, each sending its own
message type (the fourth carries entity hand-offs):

1. :class:`RouteAdvert` — the sender's current ``dist`` estimate; the
   input to the receivers' Route computation.
2. :class:`OccupancyAdvert` — the sender's (post-Route) ``next`` pointer
   and whether it holds entities; the input to ``NEPrev`` and therefore
   Signal.
3. :class:`GrantAdvert` — the sender's (post-Signal) ``signal`` value;
   the permission a mover checks before applying velocity.
4. :class:`EntityTransferMessage` — an entity whose edge crossed the
   shared boundary, handed to the neighbor (or to the target, which
   consumes it).

Messages are immutable value objects; entity payloads carry plain floats
so a transfer is a copy, not shared mutable state (no accidental
shared-memory cheating).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.grid.topology import CellId


@dataclass(frozen=True)
class Message:
    """Base class: every message names its sender and destination."""

    src: CellId
    dst: CellId


@dataclass(frozen=True)
class RouteAdvert(Message):
    """Turn A: the sender's dist estimate (None encodes infinity)."""

    dist: Optional[float]


@dataclass(frozen=True)
class OccupancyAdvert(Message):
    """Turn B: the sender's next pointer and occupancy flag."""

    next_id: Optional[CellId]
    nonempty: bool


@dataclass(frozen=True)
class GrantAdvert(Message):
    """Turn C: the sender's signal value (who may move toward it)."""

    signal: Optional[CellId]


@dataclass(frozen=True)
class EntityTransferMessage(Message):
    """An entity crossing the shared boundary into the destination cell.

    ``position`` is the entity center *after* movement, before the
    receiver snaps it onto its entry edge (the receiver knows the entry
    direction from ``src``).
    """

    uid: int
    position: Tuple[float, float]
    birth_round: int
