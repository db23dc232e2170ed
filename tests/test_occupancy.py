"""Unit tests for the occupancy/blocking probe."""

import pytest

from repro.core.params import Parameters
from repro.core.system import build_corridor_system
from repro.grid.paths import straight_path
from repro.grid.topology import Direction, Grid
from repro.metrics.occupancy import (
    OccupancyProbe,
    blocked_cell_count,
    occupancy_histogram,
    occupied_cell_count,
)
from tests.test_injector_order import commanded_rounds, commanded_runs

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)


def make_system():
    grid = Grid(8)
    path = straight_path((1, 0), Direction.NORTH, 8)
    return build_corridor_system(grid, PARAMS, path.cells)


class TestOccupancyProbe:
    def test_empty_probe_means(self):
        probe = OccupancyProbe()
        assert probe.mean_entities() == 0.0
        assert probe.mean_blocked() == 0.0
        assert probe.mean_entities_per_occupied_cell() == 0.0

    def test_series_accumulate(self):
        system = make_system()
        probe = OccupancyProbe()
        entities = []
        for _ in range(50):
            report = system.update()
            probe.observe(system, report)
            entities.append(system.entity_count())
        assert probe.rounds == 50
        assert probe.mean_entities() == sum(entities) / 50
        assert probe.mean_entities() > 0
        assert probe.mean_entities_per_occupied_cell() >= 1.0

    def test_blocking_observed_under_pressure(self):
        """With a saturating source, some rounds block a grant."""
        system = make_system()
        probe = OccupancyProbe()
        for _ in range(300):
            report = system.update()
            probe.observe(system, report)
        assert probe.mean_blocked() > 0

    def test_blocked_cell_count_matches_report(self):
        system = make_system()
        for _ in range(100):
            report = system.update()
            assert blocked_cell_count(report) == len(report.signal.blocked)

    def test_histogram(self):
        system = make_system()
        system.seed_entity((1, 3), 1.5, 3.5)
        histogram = occupancy_histogram(system)
        assert histogram[(1, 3)] == 1
        assert sum(histogram.values()) == system.entity_count()


@pytest.mark.parametrize("config, engine", commanded_runs())
def test_carried_counts_match_a_full_scan_every_round(config, engine):
    """The probe carries both counts from the round reports; arrivals
    seeded between rounds make it count the grid again."""
    rounds = 0
    for stepper in commanded_rounds(config, engine):
        probe, system = stepper.simulator.occupancy, stepper.system
        assert probe.entities == system.entity_count()
        assert probe.occupied == occupied_cell_count(system)
        rounds += 1
    assert probe.rounds == rounds


def test_a_skipped_round_is_counted_again():
    system = make_system()
    probe = OccupancyProbe()
    for round_index in range(60):
        report = system.update()
        if round_index % 7 != 3:  # the probe misses some rounds
            probe.observe(system, report)
            assert probe.occupied == occupied_cell_count(system)
    assert probe.occupied > 0
