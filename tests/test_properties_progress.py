"""Property-based verification of the stabilization and progress claims.

* Lemma 6 / Corollary 7: after failures cease, routing tables match the
  BFS ground truth within the proved bounds.
* Theorem 10: after failures cease, entities on target-connected cells
  are eventually consumed.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cell import INFINITY
from repro.core.params import Parameters
from repro.core.sources import CappedSource, EagerSource
from repro.core.system import System, build_corridor_system
from repro.faults.injector import FaultInjector
from repro.faults.model import BernoulliFaultModel, WindowedFaultModel
from repro.grid.paths import turns_path
from repro.grid.topology import Grid
from repro.monitors.progress import (
    routing_matches_ground_truth,
    routing_stabilization_round,
)
from repro.monitors.recorder import MonitorSuite

PARAMS = Parameters(l=0.25, rs=0.05, v=0.25)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRoutingStabilization:
    @SLOW
    @given(
        n=st.integers(min_value=2, max_value=6),
        tid=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        crash_seed=st.integers(min_value=0, max_value=2**16),
        crash_count=st.integers(min_value=0, max_value=8),
    )
    def test_lemma_6_bound(self, n, tid, crash_seed, crash_count):
        """From a fresh state with arbitrary crashes, every TC cell's dist
        equals rho within max-rho rounds (plus next points downhill)."""
        tid = (tid[0] % n, tid[1] % n)
        system = System(grid=Grid(n), params=PARAMS, tid=tid)
        rng = random.Random(crash_seed)
        candidates = [cid for cid in system.grid.cells() if cid != tid]
        for victim in rng.sample(candidates, min(crash_count, len(candidates))):
            system.fail(victim)
        rho = system.path_distance()
        finite = [v for v in rho.values() if v != INFINITY]
        horizon = int(max(finite)) + 1 if finite else 1
        for _ in range(horizon):
            system.update()
        assert routing_matches_ground_truth(system)

    @SLOW
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        pf=st.floats(min_value=0.05, max_value=0.3),
    )
    def test_corollary_7_after_churn_stops(self, seed, pf):
        """Arbitrary (finite) fault churn, then quiet: routing stabilizes
        within O(N^2) rounds of the last fault. The target is immune —
        the paper's environment assumption (a); with a permanently failed
        target, dist exhibits count-to-infinity instead (covered in
        test_core_route)."""
        n = 5
        system = System(grid=Grid(n), params=PARAMS, tid=(2, 2))
        churn = WindowedFaultModel(
            inner=BernoulliFaultModel(pf=pf, pr=pf, immune=frozenset({(2, 2)})),
            start=0,
            stop=20,
        )
        injector = FaultInjector(churn, rng=random.Random(seed))
        for _ in range(20):
            injector.apply(system)
            system.update()
        stabilized = routing_stabilization_round(system, max_rounds=n * n + 1)
        assert stabilized is not None


class TestNonTargetConnectedCells:
    def test_disconnected_island_counts_to_infinity(self):
        """A live island walled off from the target never stabilizes its
        dist (count-to-infinity). Lemma 6 / Corollary 7 deliberately claim
        nothing about non-TC cells; the default monitor matches that, the
        strict variant does not."""
        system = System(grid=Grid(4), params=PARAMS, tid=(0, 0))
        for _ in range(8):  # converge routing so the island holds finite dists
            system.update()
        # Wall off the top-right 2x2 island {(2,2),(3,2),(2,3),(3,3)}.
        for victim in [(2, 1), (3, 1), (1, 2), (1, 3)]:
            system.fail(victim)
        for _ in range(40):
            system.update()
        assert routing_matches_ground_truth(system)  # TC cells fine
        assert not routing_matches_ground_truth(system, strict=True)
        island_dists = [system.cells[cid].dist for cid in [(2, 2), (3, 3)]]
        assert all(d != INFINITY and d > 20 for d in island_dists)


class TestProgress:
    @SLOW
    @given(
        length=st.integers(min_value=2, max_value=7),
        turns_seed=st.integers(min_value=0, max_value=5),
        batch=st.integers(min_value=1, max_value=8),
    )
    def test_theorem_10_drain(self, length, turns_seed, batch):
        """Every produced entity on a target-connected corridor is
        eventually consumed once production stops."""
        turns = turns_seed % max(1, length - 1)
        path = turns_path((0, 0), length, turns)
        system = build_corridor_system(
            Grid(8),
            PARAMS,
            path.cells,
            source_policy=CappedSource(EagerSource(), limit=batch),
        )
        suite = MonitorSuite().attach(system)
        deadline = 400 + 40 * batch * length
        for _ in range(deadline):
            report = system.update()
            suite.after_round(system, report)
            if system.total_consumed == batch and system.entity_count() == 0:
                break
        assert system.total_produced == batch
        assert system.total_consumed == batch
        assert system.entity_count() == 0

    @SLOW
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_progress_resumes_after_failures_cease(self, seed):
        """Fault churn suppresses throughput; once it stops, consumption
        resumes (the paper's self-stabilization claim, end to end)."""
        grid = Grid(6)
        system = System(
            grid=grid,
            params=PARAMS,
            tid=(3, 5),
            sources={(3, 0): EagerSource()},
            rng=random.Random(seed),
        )
        injector = FaultInjector(
            WindowedFaultModel(
                inner=BernoulliFaultModel(
                    pf=0.15, pr=0.05, immune=frozenset({(3, 5)})
                ),
                start=0,
                stop=60,
                recover_all_at_stop=True,
            ),
            rng=random.Random(seed + 1),
        )
        for _ in range(61):
            injector.apply(system)
            system.update()
        consumed_during_churn = system.total_consumed
        for _ in range(300):
            injector.apply(system)  # quiet now
            system.update()
        assert system.total_consumed > consumed_during_churn

    def test_fairness_two_branch_merge(self):
        """Lemma 9's fairness: with two saturated branches merging, both
        keep delivering (round-robin token prevents starvation)."""
        from repro.experiments.ablations import _merge_system
        from repro.core.policies import RoundRobinTokenPolicy
        from repro.sim.simulator import Simulator

        system = _merge_system(RoundRobinTokenPolicy(), seed=5)
        simulator = Simulator(system=system, rounds=1500, monitors=MonitorSuite())
        simulator.run()
        per_source = simulator.tracker.consumed_by_source
        assert per_source[(0, 2)] > 0
        assert per_source[(2, 0)] > 0
