"""Tests for throughput-convergence analysis, including the audit of the
paper's choice of K."""

import pytest

from repro.analysis.convergence import convergence_report, recommend_horizon
from repro.core.params import Parameters
from repro.core.system import build_corridor_system
from repro.grid.paths import straight_path
from repro.grid.topology import Direction, Grid


class TestConvergenceReport:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convergence_report([])

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            convergence_report([1], relative_tolerance=0.0)

    def test_all_zero_series(self):
        report = convergence_report([0, 0, 0])
        assert report.final_estimate == 0.0
        assert report.settled_at == 0
        assert report.converged()

    def test_steady_series_settles_immediately(self):
        report = convergence_report([1] * 100)
        assert report.settled_at == 0
        assert report.margin == 1.0

    def test_transient_then_steady(self):
        # 50 empty warm-up rounds, then one delivery per round.
        series = [0] * 50 + [1] * 950
        report = convergence_report(series, relative_tolerance=0.05)
        # The running estimate enters the 5% band only once the warm-up
        # is sufficiently diluted: k / (k + ~50) >= 0.95.
        assert 500 < report.settled_at < 1000
        assert report.converged(min_margin=0.05)
        assert not report.converged(min_margin=0.9)

    def test_still_drifting_run_has_low_margin(self):
        """A run that ends mid-transient reports a near-zero margin —
        the signal that K was too small."""
        series = [0] * 50 + [1] * 50
        report = convergence_report(series, relative_tolerance=0.01)
        assert report.margin < 0.2
        assert not report.converged()


class TestRecommendHorizon:
    def test_steady_recommends_minimum(self):
        assert recommend_horizon([1] * 10) == 1

    def test_drifting_run_recommends_longer_than_observed(self):
        series = [0] * 50 + [1] * 50
        assert recommend_horizon(series, relative_tolerance=0.01) > len(series)

    def test_safety_factor(self):
        series = [0] * 50 + [1] * 950
        base = convergence_report(series).settled_at
        assert recommend_horizon(series, safety_factor=2.0) == 2 * base


class TestPaperHorizonAudit:
    def test_k_2500_suffices_for_fig7_setup(self):
        """The paper's K = 2500 is comfortably past convergence for the
        Figure 7 corridor at the slowest velocity (the worst case)."""
        params = Parameters(l=0.25, rs=0.05, v=0.05)
        path = straight_path((1, 0), Direction.NORTH, 8)
        system = build_corridor_system(Grid(8), params, path.cells)
        series = [system.update().consumed_count for _ in range(2500)]
        report = convergence_report(series, relative_tolerance=0.05)
        assert report.converged(min_margin=0.2)
        assert report.settled_at < 2000
