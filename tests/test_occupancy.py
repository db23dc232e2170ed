"""Unit tests for the occupancy/blocking probe."""

from repro.core.params import Parameters
from repro.core.system import build_corridor_system
from repro.grid.paths import straight_path
from repro.grid.topology import Direction, Grid
from repro.metrics.occupancy import OccupancyProbe, blocked_cell_count, occupancy_histogram

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
