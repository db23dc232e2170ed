"""Unit tests for the Route function (paper Figure 4, Lemma 6)."""

import math
import random

import pytest

from repro.core.cell import DIST_SENTINEL, INFINITY, dist_from_int, dist_to_int
from repro.core.params import Parameters
from repro.core.route import _route_step, route_phase
from repro.core.system import System
from repro.grid.topology import Grid

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)


def make_system(n=4, tid=(0, 0)) -> System:
    return System(grid=Grid(n), params=PARAMS, tid=tid, rng=random.Random(0))


class TestSingleStep:
    def test_target_unchanged(self):
        system = make_system()
        route_phase(system.grid, system.cells, system.tid)
        assert system.cells[(0, 0)].dist == 0.0
        assert system.cells[(0, 0)].next_id is None

    def test_first_round_reaches_neighbors_only(self):
        system = make_system()
        route_phase(system.grid, system.cells, system.tid)
        assert system.cells[(1, 0)].dist == 1.0
        assert system.cells[(0, 1)].dist == 1.0
        assert math.isinf(system.cells[(1, 1)].dist)

    def test_next_points_to_min_dist_neighbor(self):
        system = make_system()
        for _ in range(2):
            route_phase(system.grid, system.cells, system.tid)
        assert system.cells[(1, 0)].next_id == (0, 0)
        assert system.cells[(1, 1)].dist == 2.0
        # Ties between (0,1) and (1,0) break toward the smaller identifier.
        assert system.cells[(1, 1)].next_id == (0, 1)

    def test_jacobi_semantics(self):
        """Distances propagate one hop per round (not a sequential sweep)."""
        system = make_system(n=5, tid=(0, 0))
        for expected_frontier in range(1, 9):
            route_phase(system.grid, system.cells, system.tid)
            for cid, state in system.cells.items():
                true_dist = cid[0] + cid[1]
                if 0 < true_dist <= expected_frontier:
                    assert state.dist == true_dist
                elif true_dist > expected_frontier:
                    assert math.isinf(state.dist)


class TestStabilization:
    def test_stabilizes_within_h_rounds(self):
        """Lemma 6: a cell at path distance h stabilizes within h rounds."""
        system = make_system(n=6, tid=(2, 3))
        rho = system.path_distance()
        max_h = max(v for v in rho.values() if v != INFINITY)
        for _ in range(int(max_h)):
            route_phase(system.grid, system.cells, system.tid)
        for cid, state in system.cells.items():
            assert state.dist == rho[cid], cid

    def test_fixed_point_is_stable(self):
        system = make_system(n=5, tid=(4, 4))
        for _ in range(10):
            route_phase(system.grid, system.cells, system.tid)
        report = route_phase(system.grid, system.cells, system.tid)
        assert report.quiescent

    def test_report_tracks_changes(self):
        system = make_system()
        report = route_phase(system.grid, system.cells, system.tid)
        assert set(report.changed_dist) == {(1, 0), (0, 1)}


class TestTieBreak:
    """The (dist, id) argmin runs on the integral-with-sentinel embedding
    — integer comparisons, never accumulated-float ``==``."""

    def test_equidistant_neighbors_break_to_smaller_id(self):
        """All four neighbors equidistant: the argmin must pick the WEST
        neighbor — the smallest identifier in (i, j) tuple order."""
        grid = Grid(3)
        snapshot = {cid: 5 for cid in grid.cells()}
        new_dist, new_next = _route_step(grid, (1, 1), snapshot)
        assert new_dist == 6.0
        assert new_next == (0, 1)  # WEST < SOUTH (1,0) < NORTH (1,2) < EAST

    def test_neighbor_id_order_is_west_south_north_east(self):
        """The vectorized fold order (WEST, SOUTH, NORTH, EAST) is the
        ascending-identifier order for *every* interior cell."""
        grid = Grid(5)
        for i in range(1, 4):
            for j in range(1, 4):
                west, south, north, east = (
                    (i - 1, j),
                    (i, j - 1),
                    (i, j + 1),
                    (i + 1, j),
                )
                assert west < south < north < east
                assert sorted(grid.neighbors((i, j))) == [
                    west,
                    south,
                    north,
                    east,
                ]

    def test_partial_tie_prefers_smaller_id(self):
        grid = Grid(3)
        snapshot = {cid: DIST_SENTINEL for cid in grid.cells()}
        snapshot[(1, 0)] = 2  # SOUTH of (1,1)
        snapshot[(1, 2)] = 2  # NORTH of (1,1)
        new_dist, new_next = _route_step(grid, (1, 1), snapshot)
        assert (new_dist, new_next) == (3.0, (1, 0))

    def test_all_infinite_yields_bottom(self):
        grid = Grid(3)
        snapshot = {cid: DIST_SENTINEL for cid in grid.cells()}
        assert _route_step(grid, (1, 1), snapshot) == (INFINITY, None)

    def test_results_are_exact_integral_floats(self):
        system = make_system(n=5, tid=(2, 2))
        for _ in range(10):
            route_phase(system.grid, system.cells, system.tid)
        for state in system.cells.values():
            if state.dist != INFINITY:
                assert state.dist == int(state.dist)


class TestDistEmbedding:
    def test_round_trip(self):
        for value in (0.0, 1.0, 7.0, INFINITY):
            assert dist_from_int(dist_to_int(value)) == value

    def test_sentinel_is_infinity(self):
        assert dist_to_int(INFINITY) == DIST_SENTINEL
        assert math.isinf(dist_from_int(DIST_SENTINEL))

    def test_non_integral_dist_rejected(self):
        with pytest.raises(ValueError, match="not integral"):
            dist_to_int(2.5)

    def test_out_of_range_dist_rejected(self):
        with pytest.raises(ValueError, match="representable range"):
            dist_to_int(-1.0)
        with pytest.raises(ValueError, match="representable range"):
            dist_to_int(float(DIST_SENTINEL))


class TestFailures:
    def test_failed_cells_skipped_and_masked(self):
        system = make_system(n=3, tid=(0, 0))
        system.fail((1, 0))
        for _ in range(6):
            route_phase(system.grid, system.cells, system.tid)
        assert math.isinf(system.cells[(1, 0)].dist)
        # (2,0) must route around the failure: 0,0 -> 0,1 ... true dist 4.
        assert system.cells[(2, 0)].dist == 4.0
        assert system.cells[(2, 0)].next_id in {(2, 1)}

    def test_disconnected_cell_goes_to_infinity(self):
        system = make_system(n=3, tid=(0, 0))
        # Wall off the corner (2,2).
        system.fail((1, 2))
        system.fail((2, 1))
        for _ in range(10):
            route_phase(system.grid, system.cells, system.tid)
        state = system.cells[(2, 2)]
        assert math.isinf(state.dist)
        assert state.next_id is None

    def test_stale_dist_recovers_after_failure(self):
        """Routing is self-stabilizing: after a crash invalidates routes,
        the table reconverges to the new ground truth (Corollary 7)."""
        system = make_system(n=4, tid=(0, 0))
        for _ in range(10):
            route_phase(system.grid, system.cells, system.tid)
        system.fail((0, 1))
        system.fail((1, 1))
        for _ in range(16):  # O(N^2) bound
            route_phase(system.grid, system.cells, system.tid)
        rho = system.path_distance()
        for cid, state in system.cells.items():
            if not state.failed:
                assert state.dist == rho[cid], cid

    def test_target_failure_counts_to_infinity(self):
        """With the target down, stale finite dists feed one another and the
        minimum grows by one per round (classic count-to-infinity). The
        paper's analysis assumes the target never fails; Figure 9's model
        heals this by resetting dist=0 on target recovery."""
        system = make_system(n=3, tid=(1, 1))
        for _ in range(5):
            route_phase(system.grid, system.cells, system.tid)
        system.fail((1, 1))
        previous_min = min(
            state.dist for state in system.cells.values() if not state.failed
        )
        for _ in range(5):
            route_phase(system.grid, system.cells, system.tid)
            current_min = min(
                state.dist for state in system.cells.values() if not state.failed
            )
            assert current_min == previous_min + 1
            previous_min = current_min

    def test_target_recovery_reconverges(self):
        system = make_system(n=3, tid=(1, 1))
        for _ in range(5):
            route_phase(system.grid, system.cells, system.tid)
        system.fail((1, 1))
        for _ in range(7):
            route_phase(system.grid, system.cells, system.tid)
        system.recover((1, 1))
        rho = system.path_distance()
        # Inflated dists exceed the true values by the outage length, so
        # reconvergence needs outage + diameter rounds, not just diameter.
        for _ in range(20):
            route_phase(system.grid, system.cells, system.tid)
        for cid, state in system.cells.items():
            assert state.dist == rho[cid], cid
