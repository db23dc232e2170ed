"""Sharded district simulation: the grid partitioned across worker
processes, exchanging only boundary-cell shared state per round.

Modules: :mod:`~repro.shard.partition` (districts / ShardPlan),
:mod:`~repro.shard.channel` (retrying request/reply transport),
:mod:`~repro.shard.worker` (the district process and its rim cells),
:mod:`~repro.shard.coordinator` (authoritative merge, healing state
machine), :mod:`~repro.shard.engine` (the ``sharded`` RoundEngine).
See docs/sharding.md.
"""

from repro.shard.partition import (
    District,
    PARTITION_STRATEGIES,
    ShardPlan,
    make_plan,
    quadrants,
    row_bands,
)

__all__ = [
    "District",
    "PARTITION_STRATEGIES",
    "ShardPlan",
    "make_plan",
    "quadrants",
    "row_bands",
]
