"""Measurement: throughput, latency, occupancy, and time-series helpers.

The paper's headline metric is *K-round throughput* — entities arriving
at the target over ``K`` rounds divided by ``K`` — and its large-``K``
limit, the average throughput. Latency and occupancy are secondary
metrics the reproduction adds for diagnosis.
"""

from repro.metrics.latency import LatencyStats, latency_stats, percentile
from repro.metrics.occupancy import OccupancyProbe, blocked_cell_count
from repro.metrics.series import RollingMean, TimeSeries
from repro.metrics.throughput import ThroughputMeter

__all__ = [
    "LatencyStats",
    "OccupancyProbe",
    "RollingMean",
    "ThroughputMeter",
    "TimeSeries",
    "blocked_cell_count",
    "latency_stats",
    "percentile",
]
