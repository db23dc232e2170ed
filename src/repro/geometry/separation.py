"""Center-spacing separation predicates.

The paper's safety property (Theorem 5) requires that for any two distinct
entities ``p != q`` in the same cell,

    ``|px - qx| >= d  or  |py - qy| >= d``        with ``d = rs + l``.

That is, the centers must be separated by at least the *center spacing
requirement* ``d`` along at least one axis. These helpers implement that
predicate and a few aggregates used by monitors and the source policy.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.tolerance import EPS, tol_ge


def axis_separated(p: Point, q: Point, d: float, eps: float = EPS) -> bool:
    """True when ``p`` and ``q`` are separated by at least ``d`` on some axis."""
    return tol_ge(abs(p.x - q.x), d, eps) or tol_ge(abs(p.y - q.y), d, eps)


def min_axis_separation(p: Point, q: Point) -> float:
    """The larger of the two per-axis center distances.

    Safety requires this value to be at least ``d``; monitors report it so
    violations are quantifiable rather than boolean.
    """
    return max(abs(p.x - q.x), abs(p.y - q.y))


def pairwise_axis_separated(centers: Iterable[Point], d: float) -> bool:
    """True when every distinct pair in ``centers`` is axis-separated by ``d``.

    ``centers`` may be points or entities (as for :func:`fits_among`), in
    any order: each one must fit among those before it, so every pair
    meets :func:`axis_separated`'s expression once (``|a - b|`` is the
    same float either way round). Quadratic in the number of entities,
    which is fine: a unit cell can hold at most ``(1 // d + 1) ** 2``
    entities, a small constant for the paper's parameter ranges.
    """
    seen: List[Point] = []
    for center in centers:
        if not fits_among(center, seen, d):
            return False
        seen.append(center)
    return True


def separation_violations(
    centers: Sequence[Point], d: float, eps: float = EPS
) -> Iterable[Tuple[int, int, float]]:
    """Yield ``(index_a, index_b, separation)`` for every violating pair."""
    n = len(centers)
    for a in range(n):
        for b in range(a + 1, n):
            if not axis_separated(centers[a], centers[b], d, eps):
                yield a, b, min_axis_separation(centers[a], centers[b])


def fits_among(candidate: Point, members: Iterable[Point], d: float) -> bool:
    """True when placing an entity at ``candidate`` keeps all pairs separated.

    Used by source cells to decide whether an insertion would violate the
    minimum gap requirement (the paper's source specification).
    ``members`` may be points or entities (anything with ``x`` and ``y``;
    an entity holds its center there), so a source passes its cell's
    members as they are. Each pair is :func:`axis_separated`'s exact
    expression, ``|dx| >= d - EPS or |dy| >= d - EPS``, with ``d - EPS``
    computed once.
    """
    x, y = candidate.x, candidate.y
    bound = d - EPS
    for other in members:
        if not (abs(x - other.x) >= bound or abs(y - other.y) >= bound):
            return False
    return True
