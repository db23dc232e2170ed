"""Throughput-estimate convergence analysis.

The paper defines average throughput as the large-``K`` limit of the
K-round throughput and picks ``K = 2500`` (``20000`` under churn)
without further justification. This module makes that choice auditable:
given a per-round consumption series, it finds the earliest horizon at
which the running estimate enters a band around its final value and
stays there, and how much margin the chosen ``K`` left after that point.

Note the intrinsic limit of a self-referential check: the final estimate
always matches itself, so ``settled_at`` always exists; what separates a
trustworthy horizon from a dubious one is the *margin* — the fraction of
the run spent inside the band. A margin near zero means the estimate was
still drifting when the run ended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a convergence scan over a consumption series."""

    rounds: int
    final_estimate: float
    settled_at: int
    """Earliest round index from which every running estimate stays
    within the tolerance band of the final estimate."""

    relative_tolerance: float

    @property
    def margin(self) -> float:
        """Fraction of the horizon spent after settling (1 = immediate)."""
        return 1.0 - self.settled_at / self.rounds

    def converged(self, min_margin: float = 0.5) -> bool:
        """Did the run spend at least ``min_margin`` of its rounds settled?"""
        return self.margin >= min_margin


def convergence_report(
    per_round: Sequence[int], relative_tolerance: float = 0.05
) -> ConvergenceReport:
    """Scan a consumption series for estimate convergence.

    The running estimate at round ``k`` is the cumulative ``k``-round
    throughput; ``settled_at`` is one past the last round whose estimate
    fell outside ``relative_tolerance`` of the final estimate.
    """
    if not per_round:
        raise ValueError("empty consumption series")
    if relative_tolerance <= 0:
        raise ValueError("relative_tolerance must be positive")
    rounds = len(per_round)
    final = sum(per_round) / rounds
    if final == 0.0:
        # Nothing was ever delivered; the zero estimate is trivially settled.
        return ConvergenceReport(
            rounds=rounds,
            final_estimate=0.0,
            settled_at=0,
            relative_tolerance=relative_tolerance,
        )
    band = relative_tolerance * final
    last_violation = -1
    cumulative = 0
    for index, count in enumerate(per_round):
        cumulative += count
        estimate = cumulative / (index + 1)
        if abs(estimate - final) > band:
            last_violation = index
    return ConvergenceReport(
        rounds=rounds,
        final_estimate=final,
        settled_at=last_violation + 1,
        relative_tolerance=relative_tolerance,
    )


def recommend_horizon(
    per_round: Sequence[int],
    relative_tolerance: float = 0.05,
    safety_factor: float = 2.0,
) -> int:
    """A horizon recommendation: ``settled_at x safety_factor``.

    When the observed run barely settled (margin near zero), the
    recommendation accordingly exceeds the observed length — i.e. "run
    longer than you did".
    """
    report = convergence_report(per_round, relative_tolerance)
    return max(1, int(report.settled_at * safety_factor))
