"""Sharded engine equivalence: shard-count invariance proven in lockstep.

The core claim (docs/sharding.md): for any configuration the sharded
engine — at ANY district count — is observationally identical to the
reference engine, because the coordinator owns the authoritative state
and merges district results back in global row-major order before any
observer runs. The matrix here runs the reference engine against the
sharded engine at 1, 2, and 4 districts simultaneously (one N-way
lockstep per seed, sharing the reference run), over the same seeded
faulting scenario space the incremental and vectorized engines are
proven on.
"""

import os
from dataclasses import replace

import pytest

from repro.core.policies import RandomTokenPolicy
from repro.core.params import Parameters
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.engine import ENGINES, make_engine
from repro.sim.simulator import build_simulation
from repro.shard.channel import ShardChannel
from repro.shard.coordinator import ShardCoordinator
from repro.shard.engine import ShardedEngine
from repro.testing.differential import canonical_report, canonical_state, random_config

#: Shard counts every scenario is proven invariant across. 4 exceeds no
#: generated grid height (random_config draws n >= 4).
SHARD_COUNTS = (1, 2, 4)

#: Lockstep horizon cap: shard merge bugs are order-of-operations bugs
#: and surface within the first stabilization; trimming the tail keeps
#: the 26-seed matrix affordable (3 worker fleets per seed).
MAX_ROUNDS = 40


def run_nway(config):
    """Reference + sharded@{1,2,4} in lockstep; assert identity per round."""
    sims = {"reference": build_simulation(config, engine="reference")}
    for shards in SHARD_COUNTS:
        sims[f"sharded@{shards}"] = build_simulation(
            replace(config, shards=shards), engine="sharded"
        )
    try:
        for round_index in range(config.rounds):
            reports = {name: sim.step() for name, sim in sims.items()}
            states = {
                name: canonical_state(sim.system) for name, sim in sims.items()
            }
            baseline_report = canonical_report(reports["reference"])
            baseline_state = states["reference"]
            for name in sims:
                assert canonical_report(reports[name]) == baseline_report, (
                    f"round {round_index}: {name} report != reference"
                )
                assert states[name] == baseline_state, (
                    f"round {round_index}: {name} state != reference"
                )
        verdicts = {
            name: [
                (v.round_index, v.property_name, v.detail)
                for v in sim.monitors.violations
            ]
            for name, sim in sims.items()
            if sim.monitors is not None
        }
        baseline = verdicts.get("reference")
        for name, got in verdicts.items():
            assert got == baseline, f"{name} monitor verdicts != reference"
    finally:
        for sim in sims.values():
            sim.engine.close()


class TestShardCountInvariance:
    @pytest.mark.parametrize("seed", range(26))
    def test_faulting_matrix(self, seed):
        """reference == sharded@1 == sharded@2 == sharded@4, per round,
        over the seeded faulting scenario space."""
        config = random_config(seed, faulting=True)
        config = replace(config, rounds=min(config.rounds, MAX_ROUNDS))
        run_nway(config)

    def test_fault_free_leg(self):
        config = random_config(100, faulting=False)
        config = replace(config, rounds=min(config.rounds, MAX_ROUNDS))
        run_nway(config)

    def test_quadrant_partition(self, monkeypatch):
        """Quadrant districts are non-contiguous in row-major order; the
        coordinator's global merge sort must still restore reference
        report ordering exactly."""
        monkeypatch.setenv("REPRO_SHARD_PARTITION", "quadrants")
        config = replace(
            random_config(3, faulting=True), rounds=20, shards=4
        )
        sim_ref = build_simulation(config, engine="reference")
        sim_quad = build_simulation(config, engine="sharded")
        try:
            assert sim_quad.engine.partition == "quadrants"
            for round_index in range(config.rounds):
                report_ref = canonical_report(sim_ref.step())
                report_quad = canonical_report(sim_quad.step())
                assert report_quad == report_ref, f"round {round_index}"
                assert canonical_state(sim_quad.system) == canonical_state(
                    sim_ref.system
                ), f"round {round_index}"
        finally:
            sim_ref.engine.close()
            sim_quad.engine.close()


class TestWorkerSync:
    def test_audit_confirms_worker_mirrors(self):
        """After faulting rounds, every worker's district digest matches
        the coordinator's authoritative state bit-for-bit."""
        config = replace(random_config(5, faulting=True), rounds=15, shards=3)
        sim = build_simulation(config, engine="sharded")
        try:
            for _ in range(config.rounds):
                sim.step()
            verdicts = sim.engine.coordinator.audit()
            assert verdicts and all(verdicts.values()), verdicts
        finally:
            sim.engine.close()

    def test_fleet_redeploys_after_close(self):
        """summarize() closes the fleet; stepping again must redeploy it
        from the current authoritative state, not stale worker mirrors."""
        config = replace(random_config(8, faulting=True), rounds=10, shards=2)
        sim_sharded = build_simulation(config, engine="sharded")
        sim_ref = build_simulation(config, engine="reference")
        try:
            for _ in range(5):
                sim_sharded.step()
                sim_ref.step()
            sim_sharded.engine.close()  # what summarize() does
            for _ in range(5):
                sim_sharded.step()
                sim_ref.step()
            assert canonical_state(sim_sharded.system) == canonical_state(
                sim_ref.system
            )
        finally:
            sim_sharded.engine.close()
            sim_ref.engine.close()


class TestFleetTraffic:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_quiet_route_asks_each_shard_for_signal_only(self, monkeypatch, shards):
        """Fault-free, once the Route phase has been quiet for a round,
        every round posts exactly one ``signal`` request per live shard
        and no ``route`` request; no ``commit`` request is ever posted
        (a round's Move and production slice rides the next request)."""
        posts = []
        post = ShardChannel.post

        def counting_post(channel, kind, payload):
            posts[-1].append(kind)
            post(channel, kind, payload)

        monkeypatch.setattr(ShardChannel, "post", counting_post)
        config = replace(random_config(100, faulting=False), shards=shards)
        sim = build_simulation(config, engine="sharded")
        quiet = []
        try:
            for _ in range(config.rounds):
                posts.append([])
                quiet.append(sim.step().route.quiescent)
        finally:
            sim.engine.close()
        settled = max(index for index, flag in enumerate(quiet) if not flag) + 2
        assert config.rounds - settled >= 20
        assert all(kind != "commit" for kinds in posts for kind in kinds)
        for round_index in range(settled, config.rounds):
            assert posts[round_index] == ["signal"] * shards, round_index


#: A relocation script on an 8x8 grid, whose row bands are j 0-3 | 4-7
#: at 2 shards and two rows each at 4: across districts, onto the rim
#: cells of the bands on either side of the middle, and back to the start.
START = (6, 6)
RELOCATIONS = {15: (2, 1), 30: (5, 4), 45: (7, 3), 60: START}


class TestRelocation:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_relocations_reach_the_running_fleet(self, monkeypatch, seed):
        """Under Bernoulli churn, a run with four relocations stays
        state-identical to the reference every round at 1, 2 and 4
        shards, and each worker process starts once: a relocation is a
        ``relocate`` event for the old and the new target's districts,
        never a redeploy."""
        spawned = []
        spawn = ShardCoordinator._spawn

        def counting_spawn(coordinator, handle):
            spawned.append((len(coordinator.plan.districts), handle.shard_id))
            spawn(coordinator, handle)

        monkeypatch.setattr(ShardCoordinator, "_spawn", counting_spawn)
        config = SimulationConfig(
            grid_width=8,
            params=Parameters(l=0.25, rs=0.05, v=0.2),
            rounds=90,
            tid=START,
            sources=((0, 0), (0, 7)),
            fault=FaultSpec(pf=0.03, pr=0.3, protect_target=True),
            seed=seed,
        )
        sims = {"reference": build_simulation(config, engine="reference")}
        for shards in SHARD_COUNTS:
            sims[shards] = build_simulation(
                replace(config, shards=shards), engine="sharded"
            )
        try:
            for round_index in range(config.rounds):
                cell = RELOCATIONS.get(round_index)
                for sim in sims.values():
                    if cell is not None:
                        sim.system.recover(cell)  # a no-op unless churn failed it
                        sim.system.relocate_target(cell)
                    sim.step()
                expected = canonical_state(sims["reference"].system)
                for name, sim in sims.items():
                    assert canonical_state(sim.system) == expected, (
                        f"round {round_index}: sharded@{name} != reference"
                    )
            reference = sims["reference"].system
            assert reference.failed_cells() and reference.total_consumed > 0
            for shards in SHARD_COUNTS:
                coordinator = sims[shards].engine.coordinator
                assert all(coordinator.audit().values())
                relocated = [
                    entry["cell"]
                    for entry in coordinator.healing_log
                    if entry["event"] == "relocated"
                ]
                assert relocated == [list(START), [2, 1], [5, 4], [7, 3]]
        finally:
            for sim in sims.values():
                sim.engine.close()
        assert sorted(spawned) == [
            (shards, shard) for shards in SHARD_COUNTS for shard in range(shards)
        ]


class TestEngineSelection:
    BASE = dict(
        grid_width=4,
        params=Parameters(l=0.25, rs=0.05, v=0.2),
        rounds=5,
        tid=(0, 0),
        sources=((3, 3),),
    )

    def test_registered(self):
        assert ENGINES["sharded"] is ShardedEngine
        assert ShardedEngine.name == "sharded"

    def test_config_shards_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        config = SimulationConfig(**self.BASE, engine="sharded", shards=2)
        engine = build_simulation(config).engine
        assert engine.shards == 2

    def test_env_shards_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        config = SimulationConfig(**self.BASE, engine="sharded")
        assert build_simulation(config).engine.shards == 3

    def test_default_shards(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        config = SimulationConfig(**self.BASE, engine="sharded")
        assert build_simulation(config).engine.shards == 2

    def test_shards_validation(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            SimulationConfig(**self.BASE, engine="sharded", shards=0)

    def test_config_rejects_random_token_policy(self):
        with pytest.raises(ValueError, match="cannot run token_policy='random'"):
            SimulationConfig(**self.BASE, engine="sharded", token_policy="random")

    def test_engine_rejects_random_token_policy(self):
        """Defense in depth: even when selected via REPRO_ENGINE (no
        config validation), construction refuses the random policy."""
        from repro.core.system import System
        from repro.core.sources import EagerSource
        from repro.grid.topology import Grid
        import random

        system = System(
            grid=Grid(4, 4),
            params=Parameters(l=0.25, rs=0.05, v=0.2),
            tid=(0, 0),
            sources={(3, 3): EagerSource()},
            rng=random.Random(0),
            token_policy=RandomTokenPolicy(random.Random(1)),
        )
        with pytest.raises(ValueError, match="random"):
            make_engine("sharded", system)

    def test_unknown_partition_strategy_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_PARTITION", "diagonal")
        from repro.core.system import System
        from repro.core.sources import EagerSource
        from repro.grid.topology import Grid
        import random

        system = System(
            grid=Grid(4, 4),
            params=Parameters(l=0.25, rs=0.05, v=0.2),
            tid=(0, 0),
            sources={(3, 3): EagerSource()},
            rng=random.Random(0),
        )
        with pytest.raises(ValueError, match="unknown partition strategy"):
            make_engine("sharded", system)
