"""Ablation experiments for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism of the protocol and measures what
breaks (or what is gained) without it:

* **Token fairness** (:func:`token_policy_ablation`) — on a Y-shaped merge
  topology, compare round-robin rotation (the paper's mechanism, needed
  for Lemma 9) against a sticky token and a random token. The sticky
  token starves one branch; round-robin shares the junction.
* **Signal gap** (:func:`unsafe_ablation`) — remove the Signal permission
  entirely (greedy movement). Throughput improves, but the monitors count
  separation violations: the safety cost of dropping the mechanism.
* **Centralized coordination** (:func:`centralized_ablation`) — a periodic
  global coordinator versus the distributed protocol, both under cell
  churn plus (for the coordinator) its own crash/recovery process.
* **Source policy** (:func:`source_policy_ablation`) — delivered
  throughput as a function of offered load (Bernoulli arrival rates vs
  the saturating eager source).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.centralized import CentralizedSystem, CoordinatorSpec
from repro.baselines.unsafe import UnsafeSystem
from repro.core.params import Parameters
from repro.core.policies import (
    RandomTokenPolicy,
    RoundRobinTokenPolicy,
    StickyTokenPolicy,
    TokenPolicy,
)
from repro.core.sources import EagerSource
from repro.core.system import System, build_corridor_system
from repro.faults.injector import FaultInjector
from repro.faults.model import BernoulliFaultModel
from repro.grid.paths import straight_path
from repro.grid.topology import CellId, Direction, Grid
from repro.monitors.recorder import MonitorSuite
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.seeding import derive_rng
from repro.sim.simulator import Simulator, build_simulation

DEFAULT_ROUNDS = 2500
MERGE_PARAMS = Parameters(l=0.2, rs=0.05, v=0.2)


# ----------------------------------------------------------------------
# Token fairness
# ----------------------------------------------------------------------

@dataclass
class TokenAblationRow:
    """Outcome of one token policy on the merge topology."""

    policy: str
    throughput: float
    per_source_consumed: Dict[CellId, int]

    @property
    def fairness(self) -> float:
        """Min/max delivered ratio across sources (1 = perfectly fair)."""
        counts = list(self.per_source_consumed.values())
        if not counts or max(counts) == 0:
            return 0.0
        return min(counts) / max(counts)


def _merge_system(policy: TokenPolicy, seed: int) -> System:
    """Y topology: two branches merging at a junction before the target.

    Alive cells: branch A ``(0,2)->(1,2)``, branch B ``(2,0)->(2,1)``,
    junction ``(2,2)``, stem ``(2,3)``, target ``(2,4)``. Sources at the
    branch tips.
    """
    grid = Grid(5)
    alive = {(0, 2), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4)}
    system = System(
        grid=grid,
        params=MERGE_PARAMS,
        tid=(2, 4),
        sources={(0, 2): EagerSource(), (2, 0): EagerSource()},
        token_policy=policy,
        rng=random.Random(seed),
    )
    for cid in grid.cells():
        if cid not in alive:
            system.fail(cid)
    return system


def token_policy_ablation(
    rounds: int = DEFAULT_ROUNDS, seed: int = 11
) -> List[TokenAblationRow]:
    """Run the merge workload under each token policy."""
    policies: List[Tuple[str, TokenPolicy]] = [
        ("round-robin", RoundRobinTokenPolicy()),
        ("random", RandomTokenPolicy(random.Random(seed))),
        ("sticky", StickyTokenPolicy()),
    ]
    rows: List[TokenAblationRow] = []
    for name, policy in policies:
        system = _merge_system(policy, seed)
        simulator = Simulator(
            system=system, rounds=rounds, monitors=MonitorSuite()
        )
        result = simulator.run()
        per_source: Dict[CellId, int] = {(0, 2): 0, (2, 0): 0}
        per_source.update(simulator.tracker.consumed_by_source)
        rows.append(
            TokenAblationRow(
                policy=name,
                throughput=result.throughput,
                per_source_consumed=per_source,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Signal gap (unsafe baseline)
# ----------------------------------------------------------------------

@dataclass
class UnsafeAblationRow:
    """Safe protocol vs greedy baseline on the same corridor."""

    variant: str
    throughput: float
    safety_violations: int


def unsafe_ablation(
    rounds: int = DEFAULT_ROUNDS, seed: int = 12
) -> List[UnsafeAblationRow]:
    """Compare the paper's protocol with the signal-free greedy variant.

    The workload is the Y merge (where greedy's simultaneous inbound
    transfers break separation; a lone straight corridor happens to stay
    safe by quantization — see tests/test_baselines.py). The spacing is
    ``rs = 0.3`` so that ``d = 0.5`` exceeds the 0.375 offset between the
    junction's two entry points — with smaller ``d`` the simultaneous
    entries are geometrically (accidentally) safe.
    """
    grid = Grid(5)
    merge_params = Parameters(l=0.2, rs=0.3, v=0.2)
    alive = {(0, 2), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4)}
    rows: List[UnsafeAblationRow] = []
    for name, cls in (("signaled (paper)", System), ("greedy (no signal)", UnsafeSystem)):
        system = cls(
            grid=grid,
            params=merge_params,
            tid=(2, 4),
            sources={(0, 2): EagerSource(), (2, 0): EagerSource()},
            rng=random.Random(seed),
        )
        for cid in grid.cells():
            if cid not in alive:
                system.fail(cid)
        monitors = MonitorSuite(strict=False, check_h_predicate=False, check_lemma_4=False)
        # The greedy baseline runs on the reference engine only (its
        # ``engines``), whatever REPRO_ENGINE names.
        result = Simulator(
            system=system, rounds=rounds, monitors=monitors, engine="reference"
        ).run()
        safety_count = monitors.violation_counts().get("Safe (Theorem 5)", 0)
        rows.append(
            UnsafeAblationRow(
                variant=name,
                throughput=result.throughput,
                safety_violations=safety_count,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Centralized vs distributed
# ----------------------------------------------------------------------

@dataclass
class CentralizedAblationRow:
    """One coordination scheme under the same cell churn."""

    variant: str
    throughput: float
    outage_rounds: int


def centralized_ablation(
    rounds: int = DEFAULT_ROUNDS,
    pf: float = 0.01,
    pr: float = 0.1,
    period: int = 10,
    seed: int = 13,
) -> List[CentralizedAblationRow]:
    """Distributed protocol vs centralized coordinator under churn.

    The coordinator suffers the same per-round crash/recovery coins as an
    individual cell — the fairest reading of "single point of failure".
    """
    grid = Grid(8)
    path = straight_path((1, 0), Direction.NORTH, 8)
    params = Parameters(l=0.2, rs=0.05, v=0.2)
    rows: List[CentralizedAblationRow] = []

    distributed = System(
        grid=grid,
        params=params,
        tid=path.target,
        sources={path.source: EagerSource()},
        rng=random.Random(seed),
    )
    injector = FaultInjector(
        BernoulliFaultModel(pf=pf, pr=pr), rng=derive_rng(seed, "faults-dist")
    )
    result = Simulator(
        system=distributed, rounds=rounds, injector=injector, monitors=MonitorSuite()
    ).run()
    rows.append(
        CentralizedAblationRow(
            variant="distributed (paper)",
            throughput=result.throughput,
            outage_rounds=0,
        )
    )

    centralized = CentralizedSystem(
        grid=grid,
        params=params,
        tid=path.target,
        sources={path.source: EagerSource()},
        rng=random.Random(seed),
        coordinator=CoordinatorSpec(period=period, pf=pf, pr=pr),
    )
    injector = FaultInjector(
        BernoulliFaultModel(pf=pf, pr=pr), rng=derive_rng(seed, "faults-cent")
    )
    result = Simulator(
        system=centralized,
        rounds=rounds,
        injector=injector,
        monitors=MonitorSuite(),
        engine="reference",
    ).run()
    rows.append(
        CentralizedAblationRow(
            variant=f"centralized (period={period})",
            throughput=result.throughput,
            outage_rounds=centralized.coordinator_outage_rounds,
        )
    )
    return rows


# ----------------------------------------------------------------------
# Source policy
# ----------------------------------------------------------------------

@dataclass
class SourceAblationRow:
    """Delivered throughput at one offered load."""

    policy: str
    offered: float
    produced: int
    throughput: float


def source_policy_ablation(
    rounds: int = DEFAULT_ROUNDS, seed: int = 14
) -> List[SourceAblationRow]:
    """Offered-load sweep: Bernoulli arrivals approach the eager ceiling."""
    path = straight_path((1, 0), Direction.NORTH, 8)
    rows: List[SourceAblationRow] = []
    for rate in (0.02, 0.05, 0.1, 0.2, 0.5):
        config = SimulationConfig(
            grid_width=8,
            params=Parameters(l=0.25, rs=0.05, v=0.2),
            rounds=rounds,
            path=path.cells,
            source_policy=f"bernoulli:{rate}",
            seed=seed,
        )
        result = build_simulation(config).run()
        rows.append(
            SourceAblationRow(
                policy=f"bernoulli:{rate}",
                offered=rate,
                produced=result.produced,
                throughput=result.throughput,
            )
        )
    config = SimulationConfig(
        grid_width=8,
        params=Parameters(l=0.25, rs=0.05, v=0.2),
        rounds=rounds,
        path=path.cells,
        source_policy="eager",
        seed=seed,
    )
    result = build_simulation(config).run()
    rows.append(
        SourceAblationRow(
            policy="eager",
            offered=1.0,
            produced=result.produced,
            throughput=result.throughput,
        )
    )
    return rows
