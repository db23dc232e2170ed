"""Direct unit tests of ``CellProcess`` — the per-cell protocol logic
driven with hand-built messages (no engine, no network)."""

import math

import pytest

from repro.core.cell import CellState
from repro.core.entity import Entity
from repro.core.params import Parameters
from repro.core.policies import RoundRobinTokenPolicy
from repro.grid.topology import Grid
from repro.netsim.message import (
    EntityTransferMessage,
    GrantAdvert,
    OccupancyAdvert,
    RouteAdvert,
)
from repro.netsim.process import CellProcess

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
GRID = Grid(3)


def make_process(cell_id=(1, 1), is_target=False) -> CellProcess:
    state = CellState(cell_id=cell_id)
    if is_target:
        state.dist = 0.0
    return CellProcess(state, GRID, PARAMS, RoundRobinTokenPolicy())


class TestOnRoute:
    def test_takes_min_plus_one(self):
        process = make_process()
        inbox = [
            RouteAdvert(src=(0, 1), dst=(1, 1), dist=3.0),
            RouteAdvert(src=(2, 1), dst=(1, 1), dist=1.0),
            RouteAdvert(src=(1, 0), dst=(1, 1), dist=None),
        ]
        process.on_route(inbox, is_target=False)
        assert process.state.dist == 2.0
        assert process.state.next_id == (2, 1)

    def test_silence_reads_as_infinity(self):
        process = make_process()
        process.on_route([], is_target=False)  # nobody advertised
        assert math.isinf(process.state.dist)
        assert process.state.next_id is None

    def test_tie_breaks_by_identifier(self):
        process = make_process()
        inbox = [
            RouteAdvert(src=(2, 1), dst=(1, 1), dist=2.0),
            RouteAdvert(src=(0, 1), dst=(1, 1), dist=2.0),
        ]
        process.on_route(inbox, is_target=False)
        assert process.state.next_id == (0, 1)

    def test_target_ignores_route(self):
        process = make_process(is_target=True)
        process.on_route(
            [RouteAdvert(src=(0, 1), dst=(1, 1), dist=5.0)], is_target=True
        )
        assert process.state.dist == 0.0

    def test_failed_process_computes_nothing(self):
        process = make_process()
        process.state.mark_failed()
        process.on_route(
            [RouteAdvert(src=(0, 1), dst=(1, 1), dist=1.0)], is_target=False
        )
        assert math.isinf(process.state.dist)


class TestOnOccupancy:
    def test_grants_single_inbound(self):
        process = make_process()
        inbox = [
            OccupancyAdvert(src=(0, 1), dst=(1, 1), next_id=(1, 1), nonempty=True),
            OccupancyAdvert(src=(2, 1), dst=(1, 1), next_id=(2, 2), nonempty=True),
        ]
        process.on_occupancy(inbox)
        assert process.state.ne_prev == {(0, 1)}
        assert process.state.signal == (0, 1)

    def test_empty_inbound_not_in_ne_prev(self):
        process = make_process()
        inbox = [
            OccupancyAdvert(src=(0, 1), dst=(1, 1), next_id=(1, 1), nonempty=False),
        ]
        process.on_occupancy(inbox)
        assert process.state.ne_prev == set()
        assert process.state.signal is None

    def test_blocked_by_own_members(self):
        process = make_process()
        # Occupy the west strip: an entity 0.1 from the west edge.
        process.state.add_entity(Entity(uid=1, x=1.2, y=1.5))
        inbox = [
            OccupancyAdvert(src=(0, 1), dst=(1, 1), next_id=(1, 1), nonempty=True),
        ]
        process.on_occupancy(inbox)
        assert process.state.signal is None
        assert process.state.token == (0, 1)  # parked


class TestOnGrant:
    def test_moves_only_with_matching_grant(self):
        sent = []
        process = make_process()
        process.state.next_id = (2, 1)
        process.state.add_entity(Entity(uid=1, x=1.5, y=1.5))
        moved = process.on_grant(
            [GrantAdvert(src=(2, 1), dst=(1, 1), signal=(1, 1))], sent.append
        )
        assert moved
        assert process.state.members[1].x == pytest.approx(1.7)
        assert sent == []  # moved, but nothing crossed

    def test_grant_for_someone_else_ignored(self):
        sent = []
        process = make_process()
        process.state.next_id = (2, 1)
        process.state.add_entity(Entity(uid=1, x=1.5, y=1.5))
        moved = process.on_grant(
            [GrantAdvert(src=(2, 1), dst=(1, 1), signal=(1, 0))], sent.append
        )
        assert not moved
        assert process.state.members[1].x == 1.5

    def test_crossing_sends_transfer(self):
        sent = []
        process = make_process()
        process.state.next_id = (2, 1)
        process.state.add_entity(Entity(uid=1, x=1.8, y=1.5))
        process.on_grant(
            [GrantAdvert(src=(2, 1), dst=(1, 1), signal=(1, 1))], sent.append
        )
        assert 1 not in process.state.members
        (message,) = sent
        assert isinstance(message, EntityTransferMessage)
        assert (message.uid, message.dst) == (1, (2, 1))


class TestOnTransfers:
    def test_receiver_snaps_onto_entry_edge(self):
        process = make_process()
        message = EntityTransferMessage(
            src=(0, 1), dst=(1, 1), uid=7, position=(1.05, 1.4), birth_round=3
        )
        consumed = process.on_transfers([message], is_target=False)
        assert consumed == []
        entity = process.state.members[7]
        assert entity.x == pytest.approx(1.125)  # flush on the west edge
        assert entity.y == 1.4
        assert entity.birth_round == 3

    def test_target_consumes(self):
        process = make_process(is_target=True)
        message = EntityTransferMessage(
            src=(0, 1), dst=(1, 1), uid=7, position=(1.05, 1.4), birth_round=3
        )
        consumed = process.on_transfers([message], is_target=True)
        assert [entity.uid for entity in consumed] == [7]
        assert process.state.members == {}

    def test_transfer_into_crashed_cell_is_a_protocol_violation(self):
        process = make_process()
        process.state.mark_failed()
        message = EntityTransferMessage(
            src=(0, 1), dst=(1, 1), uid=7, position=(1.05, 1.4), birth_round=3
        )
        with pytest.raises(AssertionError, match="crashed"):
            process.on_transfers([message], is_target=False)
