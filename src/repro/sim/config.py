"""Declarative simulation configuration.

A :class:`SimulationConfig` captures everything needed to reproduce a run:
grid, protocol parameters, workload (corridor path or explicit
target/sources), source policy, fault model, horizon, and seed. Configs
serialize to/from plain dicts so experiment registries and result files
can embed them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.params import Parameters
from repro.grid.topology import CellId
from repro.multiflow import MULTIFLOW_ENGINES
from repro.multiflow.commodities import Commodity


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault model: Bernoulli fail/recover coins.

    ``pf = 0`` means fault-free. ``protect_target`` grants the target cell
    immunity (the analysis assumption), wherever it is relocated; the
    Figure 9 experiment leaves it False so even the target churns.
    """

    pf: float = 0.0
    pr: float = 0.0
    protect_target: bool = False

    @property
    def enabled(self) -> bool:
        return self.pf > 0.0


@dataclass(frozen=True)
class SimulationConfig:
    """A complete, reproducible run description."""

    grid_width: int
    params: Parameters
    rounds: int
    grid_height: Optional[int] = None
    path: Optional[Tuple[CellId, ...]] = None
    """Corridor mode: source at path[0], target at path[-1], complement
    failed. Mutually exclusive with explicit ``tid``/``sources``."""

    tid: Optional[CellId] = None
    sources: Tuple[CellId, ...] = ()
    source_policy: str = "eager"
    """One of ``eager``, ``silent``, ``bernoulli:<rate>``, ``capped:<n>``."""

    token_policy: str = "roundrobin"
    """Signal token policy: ``roundrobin`` (the default, the paper's
    Lemma 9 behavior), ``random`` (seeded uniform choice), or ``sticky``
    (never rotates — breaks fairness; ablations/fuzzing only)."""

    fault: FaultSpec = field(default_factory=FaultSpec)
    seed: int = 0
    warmup: int = 0
    """Rounds discarded before throughput accounting."""

    monitors: bool = True
    """Run the full monitor suite every round (strict)."""

    fail_complement: bool = True
    """In corridor mode, pre-fail all off-path cells."""

    engine: Optional[str] = None
    """Round engine executing each ``update``: ``"reference"`` (full
    sweep), ``"incremental"`` (dirty-set), or ``"vectorized"``
    (array-native, requires numpy) — all byte-identical; see
    :mod:`repro.sim.engine`. ``None`` defers to the ``REPRO_ENGINE``
    environment variable, then the default."""

    shards: Optional[int] = None
    """District count for the ``sharded`` engine (one worker process per
    contiguous district; see :mod:`repro.shard` and docs/sharding.md).
    ``None`` defers to ``REPRO_SHARDS``, then the engine default.
    Ignored by the in-process engines — results are shard-count
    invariant anyway (the lockstep harness proves 1 == 2 == 4)."""

    commodities: Tuple[Commodity, ...] = ()
    """Multi-commodity mode: concurrent (source, target) demand pairs
    run by :mod:`repro.multiflow` instead of the single-flow system.
    Mutually exclusive with ``path``/``tid``/``sources``; restricted to
    the ``reference``/``incremental`` engines. See docs/multiflow.md."""

    workload: Optional[str] = None
    """Demand schedule for multi-commodity mode: a name from
    ``repro.multiflow.workload.WORKLOAD_PROFILES`` (``steady``,
    ``diurnal``, ``bursty``, ``flash-crowd``). ``None`` means steady.
    Requires ``commodities``."""

    adversary: Optional[str] = None
    """A named adversary campaign from
    ``repro.adversary.scripts.ADVERSARIES``, optionally parameterized
    (``"regional_failure:waves=2,size=3"``). Compiles deterministically
    (from ``seed``) to scripted fault events and/or target relocations
    layered on top of ``fault``. Single-flow mode only; see
    docs/fuzzing.md."""

    jitter: float = 0.0
    """Per-message delay bound for the asynchronous ``timed`` engine, in
    round periods: each advert/occupancy/transfer message is delayed by
    ``Uniform(0, jitter)`` periods. ``0`` means a fixed half-period
    latency. Requires ``engine="timed"``; the paper's timed-rounds
    theorem says executions with jitter <= 1 period are identical to the
    synchronous model."""

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        if self.warmup < 0 or self.warmup >= self.rounds:
            raise ValueError(
                f"warmup must be in [0, rounds), got {self.warmup} of {self.rounds}"
            )
        if self.commodities:
            self._validate_multiflow()
            return
        if self.workload is not None:
            raise ValueError("workload requires commodities")
        if self.path is None and self.tid is None:
            raise ValueError("either a corridor path or an explicit tid is required")
        if self.path is not None and self.tid is not None:
            raise ValueError("corridor path and explicit tid are mutually exclusive")
        if self.path is not None and len(self.path) < 2:
            raise ValueError("a corridor path needs at least 2 cells")
        if self.fault.enabled and self.path is not None and self.fail_complement:
            raise ValueError(
                "corridor mode with a failed complement cannot be combined with "
                "a recovery fault model (the complement would resurrect); use "
                "fail_complement=False, as the paper's Figure 9 does"
            )
        _parse_source_policy(self.source_policy)  # validate eagerly
        if self.token_policy not in TOKEN_POLICIES:
            raise ValueError(
                f"unknown token policy {self.token_policy!r}; available: "
                f"{sorted(TOKEN_POLICIES)}"
            )
        if self.engine is not None:
            # Validate lazily against the registry (imported here to keep
            # config.py free of a hard dependency on the engine module at
            # import time — workers unpickle configs before anything else).
            from repro.sim.engine import ENGINES

            if self.engine not in ENGINES:
                raise ValueError(
                    f"unknown engine {self.engine!r}; available: "
                    f"{sorted(ENGINES)} (or None to defer to REPRO_ENGINE)"
                )
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.engine == "sharded" and self.token_policy == "random":
            raise ValueError(
                "engine='sharded' cannot run token_policy='random': the "
                "random policy consumes one shared RNG stream in global "
                "sweep order, which cannot be split across district "
                "processes; use 'roundrobin' or 'sticky'"
            )
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be nonnegative, got {self.jitter}")
        if self.jitter > 0.0 and self.engine != "timed":
            raise ValueError(
                "jitter models asynchronous message delay and requires "
                f"engine='timed', got engine={self.engine!r}"
            )
        if self.adversary is not None:
            # Like engines: validate lazily against the registry so
            # config.py stays import-light for worker unpickling.
            from repro.adversary.scripts import validate_adversary_spec

            validate_adversary_spec(self.adversary, self)

    def _validate_multiflow(self) -> None:
        """Validation for multi-commodity mode (``commodities`` set)."""
        if self.path is not None or self.tid is not None or self.sources:
            raise ValueError(
                "commodities are mutually exclusive with path/tid/sources"
            )
        # Constructing the table validates name uniqueness, distinct
        # targets, and per-commodity shape; grid membership is checked
        # again at build time against the actual Grid.
        from repro.multiflow.commodities import CommodityTable

        CommodityTable(self.commodities)
        if self.workload is not None:
            from repro.multiflow.workload import WORKLOAD_PROFILES

            if self.workload not in WORKLOAD_PROFILES:
                raise ValueError(
                    f"unknown workload profile {self.workload!r}; "
                    f"available: {sorted(WORKLOAD_PROFILES)}"
                )
        if self.token_policy not in TOKEN_POLICIES:
            raise ValueError(
                f"unknown token policy {self.token_policy!r}; available: "
                f"{sorted(TOKEN_POLICIES)}"
            )
        if self.engine is not None and self.engine not in MULTIFLOW_ENGINES:
            raise ValueError(
                f"engine {self.engine!r} does not support multi-commodity "
                f"systems; choose from {sorted(MULTIFLOW_ENGINES)} or None"
            )
        if self.shards is not None:
            raise ValueError("multi-commodity mode does not support shards")
        if self.adversary is not None:
            raise ValueError(
                "adversary campaigns are single-flow only (the relocation "
                "and schedule compiler targets the single-target System)"
            )
        if self.jitter:
            raise ValueError(
                "multi-commodity mode does not support the timed engine "
                "(jitter must be 0)"
            )

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serializable) for result files."""
        data = asdict(self)
        data["params"] = {"l": self.params.l, "rs": self.params.rs, "v": self.params.v}
        return data

    def fingerprint(self) -> str:
        """Stable 16-hex-digit digest of the full config.

        Checkpoint records carry this so that resuming a sweep after
        *any* parameter change (seed, horizon, fault model, ...) rejects
        the stale results instead of silently replaying them. Computed
        over the canonical JSON of :meth:`to_dict` (sorted keys, tuples
        normalized to lists), so a config survives a dict round-trip
        with its fingerprint intact.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationConfig":
        payload = dict(data)
        payload["params"] = Parameters(**payload["params"])
        if payload.get("path") is not None:
            payload["path"] = tuple(tuple(cell) for cell in payload["path"])
        if payload.get("tid") is not None:
            payload["tid"] = tuple(payload["tid"])
        payload["sources"] = tuple(tuple(cell) for cell in payload.get("sources", ()))
        fault = payload.get("fault")
        if isinstance(fault, dict):
            payload["fault"] = FaultSpec(**fault)
        payload["commodities"] = tuple(
            Commodity(
                name=c["name"],
                target=tuple(c["target"]),
                sources=tuple(tuple(s) for s in c["sources"]),
            )
            if isinstance(c, dict)
            else c
            for c in payload.get("commodities", ())
        )
        return cls(**payload)


#: Selectable Signal token policies (spec string -> description). The
#: concrete classes live in :mod:`repro.core.policies`; materialization
#: happens in :func:`repro.sim.simulator.build_simulation` so this module
#: stays import-light for worker unpickling.
TOKEN_POLICIES = {
    "roundrobin": "cycle through NEPrev in identifier order (fair, default)",
    "random": "seeded uniform choice, avoiding the previous holder",
    "sticky": "never rotates (unfair; ablation/fuzzing adversary)",
}


def _parse_source_policy(spec: str) -> Tuple[str, Optional[float]]:
    """Parse a source-policy spec string; returns ``(kind, argument)``."""
    if spec in ("eager", "silent"):
        return spec, None
    if spec.startswith("bernoulli:"):
        rate = float(spec.split(":", 1)[1])
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"bernoulli rate must be in [0, 1], got {rate}")
        return "bernoulli", rate
    if spec.startswith("capped:"):
        limit = int(spec.split(":", 1)[1])
        if limit < 0:
            raise ValueError(f"capped limit must be nonnegative, got {limit}")
        return "capped", float(limit)
    raise ValueError(f"unknown source policy spec: {spec!r}")
