"""Throughput measurement (paper Section IV).

``K-round throughput`` = entities consumed by the target over ``K``
rounds, divided by ``K``. The *average throughput* is its large-``K``
limit; experiments estimate it with the full-horizon ratio, optionally
discarding a warm-up prefix (the paper starts from an empty grid, so the
pipeline-fill transient depresses small-``K`` estimates).

The meter keeps running totals, not the per-round series, so its memory
stays flat over an arbitrarily long run (``repro serve``, the soak).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ThroughputMeter:
    """Accumulates consumption totals, with the warm-up fixed up front.

    ``warmup`` rounds are counted in :attr:`total_consumed` but left out
    of :meth:`average_throughput`.
    """

    warmup: int = 0
    rounds: int = field(default=0, init=False)
    total_consumed: int = field(default=0, init=False)
    _warmup_total: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be nonnegative, got {self.warmup}")

    def observe(self, consumed_count: int) -> None:
        """Record the entities consumed in one round."""
        if consumed_count < 0:
            raise ValueError(f"consumed count cannot be negative: {consumed_count}")
        if self.rounds < self.warmup:
            self._warmup_total += consumed_count
        self.rounds += 1
        self.total_consumed += consumed_count

    def average_throughput(self) -> float:
        """Throughput over the recorded rounds after the warm-up."""
        effective_rounds = self.rounds - min(self.warmup, self.rounds)
        if effective_rounds == 0:
            return 0.0
        return (self.total_consumed - self._warmup_total) / effective_rounds
