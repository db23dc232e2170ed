"""Tests for the message-passing implementation, including bisimulation
against the shared-variable model.

The headline property: for any workload and any fault schedule, the
timed message-passing engine and the shared-variable system are in the
*same state after every round* — the per-turn broadcast implementation
realizes exactly the semantics the paper's shared-variable model
specifies.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cell import INFINITY
from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.faults.model import BernoulliFaultModel
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction, Grid
from repro.netsim.engine import TimedEngine
from repro.netsim.message import RouteAdvert

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)


def state_fingerprint(cells) -> dict:
    """Canonical per-cell protocol state for cross-model comparison."""
    fingerprint = {}
    for cid, state in cells.items():
        members = tuple(
            (uid, round(entity.x, 9), round(entity.y, 9))
            for uid, entity in sorted(state.members.items())
        )
        dist = "inf" if state.dist == INFINITY else state.dist
        fingerprint[cid] = (
            state.failed,
            dist,
            state.next_id,
            state.token,
            state.signal,
            members,
        )
    return fingerprint


def build_system(grid, tid, sources, failed=()) -> System:
    system = System(
        grid=grid,
        params=PARAMS,
        tid=tid,
        sources={cid: EagerSource() for cid in sources},
        rng=random.Random(0),
    )
    for cid in failed:
        system.fail(cid)
    return system


def build_pair(path_cells, sources=None):
    """The same workload on the shared-variable System and on a timed
    engine driving a second System."""
    grid = Grid(8)
    sources = sources or [path_cells[0]]
    failed = [cid for cid in grid.cells() if cid not in set(path_cells)]
    shared = build_system(grid, path_cells[-1], sources, failed)
    passing = TimedEngine(build_system(grid, path_cells[-1], sources, failed))
    return shared, passing


class RecordingEngine(TimedEngine):
    """A timed engine that also keeps every message it sends."""

    def __init__(self, system):
        super().__init__(system)
        self.sent = []

    def _send(self, message):
        self.sent.append(message)
        super()._send(message)


CORRIDOR = straight_path((1, 0), Direction.NORTH, 8)


class TestNetworkSubstrate:
    def test_crashed_sender_suppressed(self):
        """A crashed cell never communicates: it sends nothing at all."""
        engine = RecordingEngine(build_system(Grid(4), (3, 3), [(0, 0)]))
        engine.system.fail((1, 1))
        engine.step()
        assert engine.sent
        assert all(message.src != (1, 1) for message in engine.sent)

    def test_delivery_clears_queue(self):
        """Every message sent in a round is consumed in that round."""
        engine = TimedEngine(build_system(Grid(4), (3, 3), [(0, 0)]))
        for _ in range(20):
            engine.step()
            assert engine._inboxes == {}
        assert sum(engine.sent_by_type.values()) > 0

    def test_broadcast_reaches_all_neighbors(self):
        engine = RecordingEngine(build_system(Grid(4), (3, 3), [(0, 0)]))
        engine.step()
        route_adverts = {
            message.dst
            for message in engine.sent
            if isinstance(message, RouteAdvert) and message.src == (1, 1)
        }
        assert route_adverts == {(0, 1), (2, 1), (1, 0), (1, 2)}
        # The protocol only ever talks to adjacent cells.
        grid = engine.system.grid
        assert all(grid.are_neighbors(m.src, m.dst) for m in engine.sent)

    def test_stats_by_type(self):
        """Sent messages are counted by type; every landed transfer was
        one EntityTransferMessage."""
        _, passing = build_pair(CORRIDOR.cells)
        transfers = sum(len(passing.step().move.transfers) for _ in range(60))
        degree_sum = sum(
            len(passing.system.grid.neighbors(cid))
            for cid in passing.system.non_faulty_cells()
        )
        assert passing.sent_by_type == {
            "RouteAdvert": 60 * degree_sum,
            "OccupancyAdvert": 60 * degree_sum,
            "GrantAdvert": 60 * degree_sum,
            "EntityTransferMessage": transfers,
        }
        assert transfers > 0


class TestMessagePassingBasics:
    def test_corridor_delivers(self):
        _, passing = build_pair(CORRIDOR.cells)
        consumed = sum(passing.step().consumed_count for _ in range(400))
        assert consumed > 0
        assert passing.system.total_consumed == consumed

    def test_message_cost_per_round(self):
        """Each live cell sends 3 adverts per neighbor per round (plus
        transfers): communication cost is measurable and bounded."""
        _, passing = build_pair(CORRIDOR.cells)
        passing.step()
        # Every live cell broadcasts to all 2-4 lattice neighbors
        # (crashed neighbors included — the sender doesn't know), 3
        # advert types.
        expected_adverts = 3 * sum(
            len(passing.system.grid.neighbors(cid))
            for cid in passing.system.non_faulty_cells()
        )
        # No transfers yet: adverts are the whole first round.
        assert sum(passing.sent_by_type.values()) == expected_adverts

    def test_monitor_suite_works_on_cells_view(self):
        """The monitors read the System the engine runs on."""
        from repro.monitors.safety import check_safe

        _, passing = build_pair(CORRIDOR.cells)
        for _ in range(200):
            passing.step()
            assert check_safe(passing.system) == []


class TestBisimulation:
    def assert_lockstep(self, shared, passing, rounds, fault_plan=None):
        for round_index in range(rounds):
            if fault_plan:
                for kind, cid in fault_plan.get(round_index, []):
                    if kind == "fail":
                        shared.fail(cid)
                        passing.system.fail(cid)
                    else:
                        shared.recover(cid)
                        passing.system.recover(cid)
            shared_report = shared.update()
            passing_report = passing.step()
            assert state_fingerprint(shared.cells) == state_fingerprint(
                passing.system.cells
            ), f"models diverged at round {round_index}"
            assert shared_report.consumed_count == passing_report.consumed_count

    def test_straight_corridor_lockstep(self):
        shared, passing = build_pair(CORRIDOR.cells)
        self.assert_lockstep(shared, passing, rounds=300)

    def test_turning_corridor_lockstep(self):
        path = turns_path((0, 0), 8, 3)
        shared, passing = build_pair(path.cells)
        self.assert_lockstep(shared, passing, rounds=300)

    def test_lockstep_with_scripted_faults(self):
        path = straight_path((1, 0), Direction.NORTH, 8)
        shared, passing = build_pair(path.cells)
        plan = {
            50: [("fail", (1, 4))],
            150: [("recover", (1, 4))],
            200: [("fail", (1, 2)), ("fail", (1, 6))],
            260: [("recover", (1, 2))],
        }
        self.assert_lockstep(shared, passing, rounds=320, fault_plan=plan)

    def test_lockstep_open_grid_multi_source(self):
        grid = Grid(5)
        kwargs = dict(
            grid=grid,
            params=PARAMS,
            tid=(2, 2),
            sources={(0, 0): EagerSource(), (4, 4): EagerSource()},
        )
        shared = System(rng=random.Random(0), **kwargs)
        passing = TimedEngine(System(rng=random.Random(0), **kwargs))
        for round_index in range(250):
            shared.update()
            passing.step()
            assert state_fingerprint(shared.cells) == state_fingerprint(
                passing.system.cells
            ), f"diverged at round {round_index}"

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        pf=st.floats(min_value=0.0, max_value=0.15),
        pr=st.floats(min_value=0.0, max_value=0.4),
    )
    def test_lockstep_under_random_churn(self, seed, pf, pr):
        """Property: identical fault coin-flips applied to both models
        keep them in identical states, whatever the churn."""
        grid = Grid(5)
        kwargs = dict(
            grid=grid, params=PARAMS, tid=(2, 4), sources={(2, 0): EagerSource()}
        )
        shared = System(rng=random.Random(0), **kwargs)
        passing = TimedEngine(System(rng=random.Random(0), **kwargs))
        model = BernoulliFaultModel(pf=pf, pr=pr)
        rng = random.Random(seed)
        for round_index in range(80):
            decision = model.decide(
                round_index,
                sorted(shared.non_faulty_cells()),
                sorted(shared.failed_cells()),
                rng,
            )
            for cid in sorted(decision.fail):
                shared.fail(cid)
                passing.system.fail(cid)
            for cid in sorted(decision.recover):
                shared.recover(cid)
                passing.system.recover(cid)
            shared.update()
            passing.step()
            assert state_fingerprint(shared.cells) == state_fingerprint(
                passing.system.cells
            ), f"diverged at round {round_index}"
