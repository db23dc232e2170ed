"""Unit tests for throughput, latency, occupancy, and series metrics."""

import pytest

from repro.metrics.latency import latency_stats, percentile
from repro.metrics.series import RollingMean, TimeSeries, mean_and_ci
from repro.metrics.throughput import ThroughputMeter


class TestThroughputMeter:
    def test_empty(self):
        meter = ThroughputMeter()
        assert meter.rounds == 0
        assert meter.total_consumed == 0
        assert meter.average_throughput() == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMeter().observe(-1)

    def test_average_with_warmup(self):
        plain, warmed = ThroughputMeter(), ThroughputMeter(warmup=4)
        for count in [1, 0, 0, 0]:
            warmed.observe(count)
        assert warmed.average_throughput() == 0.0  # still warming up
        for count in [2, 2]:
            warmed.observe(count)
        for count in [1, 0, 0, 0, 2, 2]:
            plain.observe(count)
        assert plain.average_throughput() == pytest.approx(5 / 6)
        assert warmed.average_throughput() == pytest.approx(2.0)
        # The warm-up rounds still count toward the totals.
        assert warmed.rounds == plain.rounds == 6
        assert warmed.total_consumed == plain.total_consumed == 5

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            ThroughputMeter(warmup=-1)


class TestLatencyStats:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_stats([])

    def test_single_value(self):
        stats = latency_stats([10])
        assert stats.count == 1
        assert stats.mean == 10.0
        assert stats.median == 10.0
        assert stats.p95 == 10.0
        assert stats.stdev == 0.0

    def test_summary(self):
        stats = latency_stats([10, 20, 30, 40, 50])
        assert stats.mean == 30.0
        assert stats.median == 30.0
        assert stats.minimum == 10.0
        assert stats.maximum == 50.0
        assert 40.0 <= stats.p95 <= 50.0

    def test_order_independent(self):
        assert latency_stats([3, 1, 2]) == latency_stats([1, 2, 3])


class TestPercentile:
    def test_fraction_zero_is_minimum(self):
        assert percentile([10.0, 20.0, 30.0], 0.0) == 10.0

    def test_fraction_one_is_maximum(self):
        assert percentile([10.0, 20.0, 30.0], 1.0) == 30.0

    def test_interpolates(self):
        assert percentile([10.0, 20.0], 0.5) == 15.0

    @pytest.mark.parametrize("fraction", [-0.1, 1.1, 95.0, -1.0])
    def test_out_of_range_fraction_rejected(self, fraction):
        """A fraction outside [0, 1] used to raise IndexError or silently
        extrapolate; now it is a pointed ValueError."""
        with pytest.raises(ValueError, match=r"fraction must be within"):
            percentile([10.0, 20.0, 30.0], fraction)

    def test_range_checked_before_emptiness(self):
        with pytest.raises(ValueError, match=r"fraction must be within"):
            percentile([], 2.0)


class TestTimeSeries:
    def test_append_and_last(self):
        series = TimeSeries(name="x")
        series.append(0, 1.0)
        series.append(5, 2.0)
        assert len(series) == 2
        assert series.last() == (5, 2.0)
        assert series.mean() == 1.5

    def test_monotone_rounds_enforced(self):
        series = TimeSeries(name="x")
        series.append(3, 1.0)
        with pytest.raises(ValueError):
            series.append(3, 2.0)

    def test_empty(self):
        series = TimeSeries(name="x")
        assert series.last() is None
        assert series.mean() == 0.0


class TestRollingMean:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            RollingMean(window=0)

    def test_partial_window(self):
        rolling = RollingMean(window=4)
        assert rolling.observe(2.0) == 2.0
        assert rolling.observe(4.0) == 3.0
        assert not rolling.full

    def test_full_window_evicts(self):
        rolling = RollingMean(window=2)
        rolling.observe(1.0)
        rolling.observe(3.0)
        assert rolling.full
        assert rolling.observe(5.0) == 4.0  # (3 + 5) / 2

    def test_long_stream_matches_naive(self):
        rolling = RollingMean(window=5)
        values = [float(k % 7) for k in range(100)]
        for index, value in enumerate(values):
            result = rolling.observe(value)
            window = values[max(0, index - 4) : index + 1]
            assert result == pytest.approx(sum(window) / len(window))


class TestMeanAndCI:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_ci([])

    def test_single_sample(self):
        mean, half = mean_and_ci([4.0])
        assert mean == 4.0 and half == 0.0

    def test_spread(self):
        mean, half = mean_and_ci([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert half > 0.0

    def test_identical_samples_zero_ci(self):
        mean, half = mean_and_ci([2.0, 2.0, 2.0, 2.0])
        assert mean == 2.0 and half == 0.0
