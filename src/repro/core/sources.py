"""Source-cell entity production.

The paper's sources "add at most one entity in each round ... such that
the addition does not violate the minimum gap requirement", plus the
environment assumption that a source never perpetually blocks a nonempty
non-faulty neighbor. The concrete placement rule is unspecified, so it is
a pluggable policy here (see DESIGN.md section 3).

The default :class:`EagerSource` inserts, whenever it can do so safely,
at the wall *opposite* the cell's exit direction, centered on the
perpendicular axis — new entities queue up behind the departing flow and
never occupy the strip adjacent to the exit edge, so insertions cannot
retroactively block a grant the cell just made.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.cell import CellState
from repro.core.params import Parameters
from repro.geometry.point import Point
from repro.geometry.separation import fits_among
from repro.grid.topology import CellId, Direction


def entry_wall_center(
    state: CellState, params: Parameters, nxt: Optional[CellId] = None
) -> Point:
    """Candidate insertion point: flush against the wall opposite the exit
    toward ``nxt`` (default: the cell's ``next``; a multi-commodity
    source passes its commodity's next hop).

    With no exit at all (``next = bot``) a northward exit is assumed
    (insertions remain safe either way — safety is re-checked against
    the members, not the route).
    """
    i, j = state.cell_id
    half = params.half_l
    if nxt is None:
        nxt = state.next_id
    if nxt is not None:
        exit_dir = Direction((nxt[0] - i, nxt[1] - j))
    else:
        exit_dir = Direction.NORTH
    center_x, center_y = i + 0.5, j + 0.5
    if exit_dir is Direction.EAST:
        return Point(i + half, center_y)
    if exit_dir is Direction.WEST:
        return Point(i + 1 - half, center_y)
    if exit_dir is Direction.NORTH:
        return Point(center_x, j + half)
    return Point(center_x, j + 1 - half)


class SourcePolicy:
    """Interface: propose (at most) one insertion point per round."""

    def clone(self) -> "SourcePolicy":
        """An independent copy for ``System.clone()``.

        Stateless policies share themselves; any policy with mutable
        state (counters, RNGs) must override and deep-copy it, or a
        cloned system's production would corrupt the original's.
        """
        return self

    def place(
        self,
        state: CellState,
        params: Parameters,
        round_index: int,
        rng: random.Random,
    ) -> Optional[Point]:
        """Return a safe center for a new entity, or None to skip this round.

        Implementations must only return points that keep the cell Safe;
        the system asserts this but does not repair it.
        """
        raise NotImplementedError

    def _safe_candidate(
        self, state: CellState, params: Parameters
    ) -> Optional[Point]:
        # No route yet (fresh start or post-failure): wait. Inserting
        # before the exit direction is known would pick an arbitrary wall,
        # which both risks blocking the eventual flow and breaks the
        # protocol's orientation symmetry (see tests/test_symmetry.py).
        if state.next_id is None:
            return None
        candidate = entry_wall_center(state, params)
        centers = [e.center for e in state.members.values()]
        if fits_among(candidate, centers, params.d):
            return candidate
        return None


class EagerSource(SourcePolicy):
    """Insert every round the entry wall is clear (maximum offered load).

    This is the policy used for all figure reproductions: the paper's
    throughput curves measure the *service* rate of the protocol, so the
    source must never be the bottleneck.
    """

    def place(
        self,
        state: CellState,
        params: Parameters,
        round_index: int,
        rng: random.Random,
    ) -> Optional[Point]:
        return self._safe_candidate(state, params)


class BernoulliSource(SourcePolicy):
    """Offer an entity with probability ``rate`` per round (open-loop load)."""

    def __init__(self, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"arrival rate must be in [0, 1], got {rate}")
        self.rate = rate

    def place(
        self,
        state: CellState,
        params: Parameters,
        round_index: int,
        rng: random.Random,
    ) -> Optional[Point]:
        if rng.random() >= self.rate:
            return None
        return self._safe_candidate(state, params)


class CappedSource(SourcePolicy):
    """Wrap another policy, stopping after ``limit`` successful insertions.

    Useful for drain experiments ("inject k entities, wait for delivery")
    and for the progress integration tests.
    """

    def __init__(self, inner: SourcePolicy, limit: int):
        if limit < 0:
            raise ValueError(f"limit must be nonnegative, got {limit}")
        self.inner = inner
        self.limit = limit
        self.produced = 0

    def clone(self) -> "CappedSource":
        other = CappedSource(self.inner.clone(), self.limit)
        other.produced = self.produced
        return other

    def place(
        self,
        state: CellState,
        params: Parameters,
        round_index: int,
        rng: random.Random,
    ) -> Optional[Point]:
        if self.produced >= self.limit:
            return None
        candidate = self.inner.place(state, params, round_index, rng)
        if candidate is not None:
            self.produced += 1
        return candidate


class SilentSource(SourcePolicy):
    """Never produces (lets a pre-loaded configuration drain)."""

    def place(
        self,
        state: CellState,
        params: Parameters,
        round_index: int,
        rng: random.Random,
    ) -> Optional[Point]:
        return None
