"""Per-cell protocol state and the failure-masked shared-variable view.

Each ``Cell_{i,j}`` owns the variables of the paper's Figure 3:

=============  =====================================================
``members``    set of entities located in the cell (keyed by uid)
``next_id``    neighbor toward which the cell attempts to move (bot = None)
``ne_prev``    nonempty neighbors whose ``next`` points at this cell
``dist``       estimated hop distance to the target (infinity when unknown)
``token``      rotating mutual-exclusion token over ``ne_prev``
``signal``     neighbor currently granted permission to move this way
``failed``     crash flag
=============  =====================================================

``members``, ``dist``, ``next_id`` and ``signal`` are *shared*: neighbors
read them each round. A failed cell "never communicates", so neighbors
must observe default values for its shared variables; the ``effective_*``
helpers implement exactly that masking and are the only way protocol code
reads a neighbor's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.entity import Entity
from repro.grid.topology import CellId

INFINITY: float = math.inf
"""The paper's ``dist = infinity`` (unknown / failed)."""

DIST_SENTINEL: int = 2**31 - 1
"""Integer stand-in for ``dist = infinity``.

Every finite ``dist`` the protocol produces is an exact integral float
(``0`` at the target, ``1 + min`` everywhere else), so the whole dist
lattice embeds into the integers with one sentinel for infinity. The
reference engine compares dists through this embedding (killing the
float-``==`` tie-break hazard), and the vectorized engine stores dists
this way natively (:mod:`repro.core.arrays`). The sentinel is far above
any reachable hop count (bounded by rounds elapsed), so ``best + 1``
can never collide with it.
"""


def dist_to_int(value: float) -> int:
    """Embed a ``dist`` float into the integral-with-sentinel form.

    Raises ``ValueError`` for non-integral or out-of-range values — a
    non-integral dist means some code path broke the ``1 + min``
    arithmetic, which must fail loudly rather than silently mis-compare.
    """
    if value == INFINITY:
        return DIST_SENTINEL
    as_int = int(value)
    if as_int != value:
        raise ValueError(
            f"dist {value!r} is not integral; the protocol only produces "
            f"0, infinity, or 1 + min values"
        )
    if not 0 <= as_int < DIST_SENTINEL:
        raise ValueError(
            f"dist {value!r} outside the representable range "
            f"[0, {DIST_SENTINEL})"
        )
    return as_int


def dist_from_int(value: int) -> float:
    """Inverse of :func:`dist_to_int` (sentinel back to ``math.inf``)."""
    return INFINITY if value == DIST_SENTINEL else float(value)


@dataclass
class CellState:
    """Mutable protocol state of one cell.

    Initial values follow the paper's Figure 3: everything bottom/empty,
    ``dist = infinity`` (the target's dist is set to 0 by the system on
    construction and on recovery).
    """

    cell_id: CellId
    members: Dict[int, Entity] = field(default_factory=dict)
    next_id: Optional[CellId] = None
    ne_prev: Set[CellId] = field(default_factory=set)
    dist: float = INFINITY
    token: Optional[CellId] = None
    signal: Optional[CellId] = None
    failed: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.members

    def entities(self) -> List[Entity]:
        """The member entities (stable uid order, for determinism)."""
        return [self.members[uid] for uid in sorted(self.members)]

    def add_entity(self, entity: Entity) -> None:
        """Add an entity to ``members`` (uid must be fresh)."""
        if entity.uid in self.members:
            raise ValueError(f"entity {entity.uid} already in cell {self.cell_id}")
        self.members[entity.uid] = entity

    def remove_entity(self, uid: int) -> Entity:
        """Remove and return the entity with ``uid``."""
        try:
            return self.members.pop(uid)
        except KeyError:
            raise ValueError(f"entity {uid} not in cell {self.cell_id}") from None

    def mark_failed(self) -> None:
        """Apply the paper's ``fail(<i,j>)`` effect to the local state."""
        self.failed = True
        self.dist = INFINITY
        self.next_id = None

    def mark_recovered(self, is_target: bool) -> None:
        """Un-crash the cell (the Figure 9 recovery model).

        A recovered cell rejoins with no routing knowledge; recovery of the
        target also resets ``dist = 0`` (Section IV of the paper). Members
        persist across the crash — entities parked on a failed cell are not
        destroyed.
        """
        self.failed = False
        self.dist = 0.0 if is_target else INFINITY
        self.next_id = None
        self.token = None
        self.signal = None
        self.ne_prev = set()

    def mark_retargeted(self, is_target: bool) -> None:
        """A target relocation's effect on the new (``is_target``) or the
        old target: its route restarts from ``dist = 0`` or ``INFINITY``.
        A failed cell keeps its crash state."""
        if not self.failed:
            self.dist = 0.0 if is_target else INFINITY
            self.next_id = None

    def clone(self) -> "CellState":
        """Deep copy (snapshots for monitors, the explorer, and baselines)."""
        return CellState(
            cell_id=self.cell_id,
            members={uid: e.clone() for uid, e in self.members.items()},
            next_id=self.next_id,
            ne_prev=set(self.ne_prev),
            dist=self.dist,
            token=self.token,
            signal=self.signal,
            failed=self.failed,
        )


def effective_dist(state: CellState) -> float:
    """``dist`` as observed by neighbors (infinity when failed)."""
    return INFINITY if state.failed else state.dist


def effective_next(state: CellState) -> Optional[CellId]:
    """``next`` as observed by neighbors (bottom when failed)."""
    return None if state.failed else state.next_id


def effective_signal(state: CellState) -> Optional[CellId]:
    """``signal`` as observed by neighbors (bottom when failed)."""
    return None if state.failed else state.signal


def effective_nonempty(state: CellState) -> bool:
    """Whether neighbors observe the cell as holding entities.

    A failed cell does not communicate, so its members are invisible; this
    keeps failed cells out of everyone's ``NEPrev`` and therefore out of
    token rotation.
    """
    return (not state.failed) and bool(state.members)
