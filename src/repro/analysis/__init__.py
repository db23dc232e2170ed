"""Result analysis: aggregation across seeds, convergence auditing,
tables, and terminal plots."""

from repro.analysis.aggregate import aggregate_by, summarize
from repro.analysis.ascii_plot import line_plot
from repro.analysis.convergence import (
    ConvergenceReport,
    convergence_report,
    recommend_horizon,
)
from repro.analysis.tables import format_series_table, format_table

__all__ = [
    "ConvergenceReport",
    "aggregate_by",
    "convergence_report",
    "format_series_table",
    "format_table",
    "line_plot",
    "recommend_horizon",
    "summarize",
]
