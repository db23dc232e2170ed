"""The per-cell kernels against their literal definitions, at the
tolerance boundary.

Each kernel reads ``CellState`` fields directly and computes its
tolerant bound once (``b + EPS`` for a ``tol_le``, ``b - EPS`` for a
``tol_ge``). These properties place members, candidates and pairs
within a few ``EPS`` of each bound and compare every verdict with the
form the kernel replaces: the per-member ``tol_le`` / ``tol_ge`` gap
test, ``axis_separated`` per pair, the monitors' generators over
``entities()``, a brute-force ``(dist, id)`` argmin, and the
``effective_*`` reading of ``NEPrev``. A kernel whose bound carries the
wrong sign of ``EPS`` gives a different verdict on a point exactly at
the bound, so each boundary property fails on that mutant.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.cell import (
    DIST_SENTINEL,
    INFINITY,
    CellState,
    effective_next,
    effective_nonempty,
)
from repro.core.entity import Entity
from repro.core.move import MovePhaseReport
from repro.core.params import Parameters
from repro.core.route import RoutePhaseReport, _route_step
from repro.core.signal import SignalPhaseReport, compute_ne_prev, gap_clear
from repro.core.system import RoundReport, System
from repro.geometry.point import Point
from repro.geometry.separation import (
    axis_separated,
    fits_among,
    pairwise_axis_separated,
)
from repro.geometry.tolerance import EPS, tol_ge, tol_le
from repro.grid.topology import DIRECTIONS, Direction, Grid
from repro.monitors.invariants import cell_containment_violations, members_contained
from repro.monitors.recorder import MonitorSuite
from repro.monitors.safety import cell_safety_violations

SEEDED = settings(derandomize=True, deadline=None, max_examples=200)

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
HALF = PARAMS.half_l
D = PARAMS.d

#: Offsets from a bound: exactly on it, a fraction of EPS and a few EPS
#: either side, and anything in between.
OFFSETS = st.one_of(
    st.sampled_from([0.0, EPS / 2, -EPS / 2, EPS, -EPS, 2 * EPS, -2 * EPS, 3 * EPS]),
    st.floats(min_value=-4 * EPS, max_value=4 * EPS),
)

CELLS = st.tuples(st.integers(0, 5), st.integers(0, 5))


def _cell_state(cid, coordinates) -> CellState:
    state = CellState(cell_id=cid)
    for uid, (x, y) in enumerate(coordinates):
        state.members[uid] = Entity(uid=uid, x=x, y=y)
    return state


# ----------------------------------------------------------------------
# gap_clear
# ----------------------------------------------------------------------


def literal_gap(state: CellState, toward: Direction, params: Parameters) -> bool:
    """The paper's lines 4-7 member by member, each through ``tol_le`` /
    ``tol_ge``."""
    i, j = state.cell_id
    half, d = params.half_l, params.d
    members = state.members.values()
    if toward is Direction.EAST:
        return all(tol_le(e.x + half, i + 1 - d) for e in members)
    if toward is Direction.WEST:
        return all(tol_ge(e.x - half, i + d) for e in members)
    if toward is Direction.NORTH:
        return all(tol_le(e.y + half, j + 1 - d) for e in members)
    return all(tol_ge(e.y - half, j + d) for e in members)


@st.composite
def gap_cells(draw):
    """A cell whose members sit on, or a few EPS off, the strip bounds of
    its four edges (or well inside)."""
    cid = draw(CELLS)
    i, j = cid

    def coordinate(low):
        edges = (low + D + HALF, low + 1 - D - HALF, low + 0.5)
        return draw(st.sampled_from(edges)) + draw(OFFSETS)

    count = draw(st.integers(0, 4))
    return _cell_state(cid, [(coordinate(i), coordinate(j)) for _ in range(count)])


@given(gap_cells())
@SEEDED
def test_gap_clear_matches_the_per_member_form(state):
    for toward in DIRECTIONS:
        assert gap_clear(state, toward, PARAMS) == literal_gap(state, toward, PARAMS)


# ----------------------------------------------------------------------
# The monitors' Safe and Invariant 1 checks
# ----------------------------------------------------------------------


def _expected_violations(system, round_index):
    """What the monitors must record: the generators over ``entities()``,
    all Safe first, then all Invariant 1, cells in grid order."""
    d, half = system.params.d, system.params.half_l
    unsafe, outside = [], []
    for cid, state in system.cells.items():
        entities = state.entities()
        if len(entities) > 1:
            unsafe.extend(cell_safety_violations(cid, entities, d))
        if entities:
            outside.extend(cell_containment_violations(cid, entities, half))
    return [(round_index, "Safe (Theorem 5)", str(v)) for v in unsafe] + [
        (round_index, "Invariant 1", str(v)) for v in outside
    ]


def _layout(low, slot, offset):
    """A coordinate of cell origin ``low``: the slots sit on the
    containment bounds and one spacing ``d`` in, so neighbouring slots
    are ``d`` apart up to the offsets."""
    return (low + HALF, low + HALF + D, low + 1 - HALF)[slot] + offset


MEMBER = st.tuples(st.integers(0, 2), st.integers(0, 2), OFFSETS, OFFSETS)


@given(
    cells=st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.lists(MEMBER, min_size=1, max_size=4),
        max_size=3,
    )
)
@example(cells={(1, 1): [(0, 0, 0.0, 0.0), (1, 2, 0.0, 0.0)]})
@example(cells={(0, 2): [(0, 0, 0.0, 0.0), (0, 0, EPS, -EPS)]})
@example(cells={(2, 0): [(0, 1, -2 * EPS, 0.0), (1, 1, 0.0, 0.0)]})
@SEEDED
def test_monitors_record_what_the_generators_yield(cells):
    system = System(Grid(3), PARAMS, tid=(2, 2))
    for cid, members in sorted(cells.items()):
        for kx, ky, dx, dy in members:
            system.seed_entity(
                cid, _layout(cid[0], kx, dx), _layout(cid[1], ky, dy)
            )
    monitors = MonitorSuite(strict=False)
    report = RoundReport(5, RoutePhaseReport(), SignalPhaseReport(), MovePhaseReport())
    monitors.after_round(system, report)
    recorded = [(v.round_index, v.property_name, v.detail) for v in monitors.violations]
    assert recorded == _expected_violations(system, 5)
    # The per-cell verdicts themselves: a kernel that flagged a clean
    # cell would only cost a sort above, so pin it directly.
    for cid, state in system.cells.items():
        entities = state.entities()
        members = state.members.values()
        assert pairwise_axis_separated(members, D) == (
            not list(cell_safety_violations(cid, entities, D))
        )
        assert members_contained(cid, members, HALF) == (
            not list(cell_containment_violations(cid, entities, HALF))
        )


def test_monitors_pass_a_clean_cell_and_report_a_violating_one():
    system = System(Grid(3), PARAMS, tid=(2, 2))
    system.seed_entity((0, 0), HALF, HALF)
    system.seed_entity((0, 0), HALF + D - EPS / 2, HALF)  # separated, within EPS
    system.seed_entity((1, 1), 1 + HALF, 1 + HALF)
    system.seed_entity((1, 1), 1 + HALF + D / 2, 1 + HALF)  # too close
    system.seed_entity((1, 1), 1 + HALF - 2 * EPS, 1.5)  # sticks out
    monitors = MonitorSuite(strict=False)
    report = RoundReport(0, RoutePhaseReport(), SignalPhaseReport(), MovePhaseReport())
    monitors.after_round(system, report)
    assert [v.property_name for v in monitors.violations] == [
        "Safe (Theorem 5)",
        "Invariant 1",
    ]
    assert [(v.round_index, v.property_name, v.detail) for v in monitors.violations] == (
        _expected_violations(system, 0)
    )


# ----------------------------------------------------------------------
# fits_among
# ----------------------------------------------------------------------


@given(
    candidate=st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8)),
    members=st.lists(
        st.tuples(
            st.sampled_from([-D, 0.0, D, D / 2]),
            st.sampled_from([-D, 0.0, D, D / 2]),
            OFFSETS,
            OFFSETS,
        ),
        max_size=4,
    ),
)
@example(candidate=(0.5, 0.5), members=[(D, 0.0, 0.0, 0.0)])
@SEEDED
def test_fits_among_members_matches_axis_separated_pairs(candidate, members):
    cx, cy = candidate
    entities = [
        Entity(uid=uid, x=cx + sx + dx, y=cy + sy + dy)
        for uid, (sx, sy, dx, dy) in enumerate(members)
    ]
    point = Point(cx, cy)
    expected = all(axis_separated(point, Point(e.x, e.y), D) for e in entities)
    assert fits_among(point, entities, D) == expected
    assert fits_among(point, [e.center for e in entities], D) == expected


# ----------------------------------------------------------------------
# _route_step
# ----------------------------------------------------------------------

DISTS = st.one_of(st.integers(0, 4), st.just(DIST_SENTINEL))


@given(
    size=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    data=st.data(),
)
@SEEDED
def test_route_step_matches_brute_force_argmin(size, data):
    grid = Grid(*size)
    dists = {cid: data.draw(DISTS) for cid in grid.cells()}
    cid = data.draw(st.sampled_from(list(grid.cells())))
    finite = [(dists[n], n) for n in grid.neighbors(cid) if dists[n] != DIST_SENTINEL]
    if finite:
        best_dist, best = min(finite)
        expected = (float(best_dist + 1), best)
    else:
        expected = (INFINITY, None)
    assert _route_step(grid, cid, dists) == expected


# ----------------------------------------------------------------------
# compute_ne_prev
# ----------------------------------------------------------------------


@given(
    size=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    data=st.data(),
)
@SEEDED
def test_compute_ne_prev_matches_the_effective_reading(size, data):
    grid = Grid(*size)
    cells = {}
    for cid in grid.cells():
        state = CellState(cell_id=cid)
        # next: bottom, or any neighbor (this cell's or elsewhere).
        state.next_id = data.draw(st.sampled_from([None, *grid.neighbors(cid)]))
        if data.draw(st.booleans()):
            state.members[0] = Entity(uid=0, x=cid[0] + 0.5, y=cid[1] + 0.5)
        # A failed cell keeps whatever next and members it had: the
        # masking alone must hide it.
        state.failed = data.draw(st.booleans())
        cells[cid] = state
    for cid in grid.cells():
        expected = {
            n
            for n in grid.neighbors(cid)
            if effective_next(cells[n]) == cid and effective_nonempty(cells[n])
        }
        assert compute_ne_prev(grid, cells, cid) == expected
