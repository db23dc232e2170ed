"""Message-passing realization of the protocol.

The paper models ``System`` with shared variables but explains the
intended implementation: "at the beginning of each round, Cell_{i,j}
broadcasts messages containing the values of these variables and
receives similar values from its neighbors" (Section II-B), with
messages "delivered within bounded time". This package builds that
implementation for real:

* :mod:`repro.netsim.message` — the wire messages: per-phase state
  adverts and entity-transfer messages.
* :mod:`repro.netsim.delay` — per-message latency models (fixed,
  uniform jitter, heavy tail) and advert loss as an infinite delay.
* :mod:`repro.netsim.process` — a per-cell process that runs the
  protocol using *only* messages and its own cell state.
* :mod:`repro.netsim.engine` — :class:`TimedEngine`, the ``timed``
  round engine: one paper round as four timed turns
  (dist -> Route, next/occupancy -> Signal, grant -> Move, transfers)
  run directly on a :class:`~repro.core.system.System`.

With every latency within one period the engine is state-identical to
the shared-variable round, every round: ``tests/test_netsim.py`` and
``tests/test_asyncnet.py`` run both side by side under identical fault
schedules, and the ``async-equivalence`` fuzz oracle checks it on
generated scenarios.
"""

from repro.netsim.delay import (
    DelayModel,
    FixedDelay,
    HeavyTailDelay,
    LossyDelay,
    UniformDelay,
)
from repro.netsim.engine import TimedEngine
from repro.netsim.message import (
    EntityTransferMessage,
    GrantAdvert,
    Message,
    OccupancyAdvert,
    RouteAdvert,
)
from repro.netsim.process import CellProcess

__all__ = [
    "CellProcess",
    "DelayModel",
    "EntityTransferMessage",
    "FixedDelay",
    "GrantAdvert",
    "HeavyTailDelay",
    "LossyDelay",
    "Message",
    "OccupancyAdvert",
    "RouteAdvert",
    "TimedEngine",
    "UniformDelay",
]
