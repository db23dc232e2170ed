"""The synchronous network substrate.

Delivery model (matching the paper's assumptions): messages sent in a
sub-round are delivered, reliably and unmodified, at the end of that
sub-round; computation is instantaneous. Crashed senders produce
nothing — "a failed cell does nothing; it never moves and it never
communicates" — so a silent neighbor is indistinguishable from a crashed
one, which is exactly the observation model the protocol is built on.

The network also keeps per-type counters, making the protocol's
communication cost measurable (messages per round, per cell).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Set, Type

from repro.grid.topology import CellId
from repro.netsim.message import Message

#: Default cap on the retained per-delivery history, so a long soak
#: run cannot grow memory linearly with rounds. ``None`` opts out
#: (unbounded).
DEFAULT_HISTORY_LIMIT = 10_000


@dataclass
class NetworkStats:
    """Cumulative message accounting.

    The aggregate counters are exact for the whole run;
    ``delivered_history`` (messages handed over per ``deliver`` call,
    i.e. per sub-round) is a bounded ring buffer keeping the most recent
    ``history_limit`` samples.
    """

    sent_by_type: Dict[str, int] = field(default_factory=dict)
    suppressed_from_crashed: int = 0
    delivered: int = 0
    history_limit: Optional[int] = DEFAULT_HISTORY_LIMIT
    delivered_history: Deque[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.history_limit is not None and self.history_limit <= 0:
            raise ValueError(
                f"history_limit must be positive or None, got {self.history_limit}"
            )
        self.delivered_history = deque(maxlen=self.history_limit)

    def record_sent(self, message: Message) -> None:
        """Count one sent message by its type name."""
        name = type(message).__name__
        self.sent_by_type[name] = self.sent_by_type.get(name, 0) + 1

    def record_delivery(self, count: int) -> None:
        """Record one ``deliver`` batch (bounded per-sub-round history)."""
        self.delivered += count
        self.delivered_history.append(count)

    @property
    def total_sent(self) -> int:
        return sum(self.sent_by_type.values())


class SynchronousNetwork:
    """Per-sub-round mailboxes over a fixed neighbor topology."""

    def __init__(self, grid, history_limit: Optional[int] = DEFAULT_HISTORY_LIMIT):
        self.grid = grid
        self._outbox: List[Message] = []
        self._crashed: Set[CellId] = set()
        self.stats = NetworkStats(history_limit=history_limit)

    # ------------------------------------------------------------------

    def set_crashed(self, crashed: Iterable[CellId]) -> None:
        """Update the crash set; crashed senders' messages are dropped."""
        self._crashed = set(crashed)

    def send(self, message: Message) -> None:
        """Queue a message for end-of-sub-round delivery.

        Raises on non-neighbor destinations — the protocol only ever
        talks to adjacent cells, and a violation here means a bug.
        """
        if not self.grid.are_neighbors(message.src, message.dst):
            raise ValueError(
                f"message from {message.src} to non-neighbor {message.dst}"
            )
        if message.src in self._crashed:
            self.stats.suppressed_from_crashed += 1
            return
        self.stats.record_sent(message)
        self._outbox.append(message)

    def broadcast(self, src: CellId, make_message) -> None:
        """Send ``make_message(dst)`` to every lattice neighbor of ``src``."""
        for dst in self.grid.neighbors(src):
            self.send(make_message(dst))

    def deliver(self) -> Dict[CellId, List[Message]]:
        """End the sub-round: hand every queued message to its destination.

        Messages to crashed cells are delivered too (a crashed receiver
        simply ignores its mailbox) — suppression is a *sender* property.
        Delivery order is deterministic: by (sender, type name) so runs
        are reproducible regardless of send order.
        """
        inboxes: Dict[CellId, List[Message]] = {}
        for message in sorted(
            self._outbox, key=lambda m: (m.src, type(m).__name__)
        ):
            inboxes.setdefault(message.dst, []).append(message)
        self.stats.record_delivery(len(self._outbox))
        self._outbox = []
        return inboxes

    @property
    def in_flight(self) -> int:
        return len(self._outbox)
