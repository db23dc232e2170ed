"""The multi-commodity subsystem (``repro.multiflow``).

Covers the demand library (commodity tables, workload profiles), the
multi-commodity automaton itself (residency exclusion, per-commodity
routing with ECMP tie-splitting, fault reroute, per-round conservation
ledgers), the config/simulator/CLI wiring, the ``commodity.*`` metric
emission, and — the headline regression — fairness: two commodities
whose lanes cross at one contended cell must *both* keep delivering
under round-robin token rotation (neither starves).
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.cli.main import main as cli_main
from repro.core.entity import Entity
from repro.core.params import Parameters
from repro.grid.topology import Grid
from repro.monitors.safety import check_safe
from repro.multiflow.commodities import (
    Commodity,
    CommodityTable,
    default_commodities,
)
from repro.multiflow.system import MultiCommoditySystem
from repro.multiflow.workload import (
    WORKLOAD_PROFILES,
    WorkloadProfile,
    resolve_workload,
)
from repro.obs import ObservabilityConfig
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.simulator import build_simulation

PARAMS = Parameters(l=0.25, rs=0.05, v=0.25)


def plus_crossing() -> MultiCommoditySystem:
    """Two commodities crossing at the center (2, 2) of a 5-grid:
    eastbound along row 2 and northbound along column 2."""
    return MultiCommoditySystem(
        Grid(5),
        Parameters(l=0.2, rs=0.05, v=0.2),
        (
            Commodity(name="eastbound", target=(4, 2), sources=((0, 2),)),
            Commodity(name="northbound", target=(2, 4), sources=((2, 0),)),
        ),
        rng=random.Random(0),
    )


def crossing_config(**overrides) -> SimulationConfig:
    """Two commodities whose lanes cross at (1, 1) on a 5-grid."""
    base = dict(
        grid_width=5,
        params=PARAMS,
        rounds=150,
        commodities=default_commodities(5, 2),
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


# ----------------------------------------------------------------------
# Commodities and tables
# ----------------------------------------------------------------------


class TestCommodity:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            Commodity(name="", target=(1, 1), sources=((0, 0),))
        with pytest.raises(ValueError, match="at least one source"):
            Commodity(name="c", target=(1, 1), sources=())
        with pytest.raises(ValueError, match="duplicate"):
            Commodity(name="c", target=(1, 1), sources=((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="cannot also be a source"):
            Commodity(name="c", target=(1, 1), sources=((1, 1),))

    def test_coerces_to_tuples(self):
        commodity = Commodity(name="c", target=[1, 2], sources=[[0, 0], [2, 2]])
        assert commodity.target == (1, 2)
        assert commodity.sources == ((0, 0), (2, 2))


class TestCommodityTable:
    def test_lookup_and_order(self):
        table = CommodityTable(default_commodities(5, 3))
        assert table.names() == ("c0", "c1", "c2")
        assert table.index_of("c1") == 1
        assert table.by_name("c2").name == "c2"
        assert len(table) == 3
        assert len(table.targets()) == 3

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError, match="at least one commodity"):
            CommodityTable(())

    def test_rejects_duplicate_names(self):
        pair = (
            Commodity(name="c", target=(0, 0), sources=((1, 1),)),
            Commodity(name="c", target=(2, 2), sources=((1, 1),)),
        )
        with pytest.raises(ValueError, match="duplicate commodity name"):
            CommodityTable(pair)

    def test_validate_on_grid(self):
        table = CommodityTable(default_commodities(5, 2))
        assert table.validate(Grid(5)) is table
        with pytest.raises(ValueError):
            table.validate(Grid(3))  # (4, 1) is off a 3-grid
        shared = (
            Commodity(name="a", target=(2, 2), sources=((0, 0),)),
            Commodity(name="b", target=(2, 2), sources=((1, 1),)),
        )
        with pytest.raises(ValueError, match="must be distinct"):
            CommodityTable(shared).validate(Grid(3))

    def test_default_commodities_layout(self):
        lanes = default_commodities(6, 4)
        # Even indices run west -> east, odd indices south -> north;
        # endpoints never collide.
        assert lanes[0].sources == ((0, 1),) and lanes[0].target == (5, 1)
        assert lanes[1].sources == ((1, 0),) and lanes[1].target == (1, 5)
        endpoints = [c.target for c in lanes] + [
            s for c in lanes for s in c.sources
        ]
        assert len(endpoints) == len(set(endpoints))
        with pytest.raises(ValueError, match="too small"):
            default_commodities(3, 9)


# ----------------------------------------------------------------------
# Workload profiles
# ----------------------------------------------------------------------


class TestWorkloads:
    def test_registry_is_consistent(self):
        for name, profile in WORKLOAD_PROFILES.items():
            assert profile.name == name
            assert profile.description
            assert "\n" not in profile.description

    def test_resolve(self):
        assert resolve_workload(None).name == "steady"
        assert resolve_workload("bursty").name == "bursty"
        profile = WORKLOAD_PROFILES["diurnal"]
        assert resolve_workload(profile) is profile
        with pytest.raises(ValueError, match="unknown workload"):
            resolve_workload("nope")

    def test_profile_semantics(self):
        steady = WORKLOAD_PROFILES["steady"]
        assert all(steady.active(k, r) for k in range(3) for r in range(100))
        diurnal = WORKLOAD_PROFILES["diurnal"]
        # 40-round period, on for the first 20 rounds, 7-round phase
        # shift per commodity.
        assert diurnal.active(0, 0) and not diurnal.active(0, 25)
        for r in range(80):
            assert diurnal.active(0, r) == diurnal.active(0, r + 40)
            assert diurnal.active(0, r) == diurnal.active(1, r + 33)
        flash = WORKLOAD_PROFILES["flash-crowd"]
        assert all(flash.active(0, r) for r in range(120))  # c0 is steady
        assert not flash.active(1, 10) and flash.active(1, 45)
        bursty = WORKLOAD_PROFILES["bursty"]
        on = sum(bursty.active(0, r) for r in range(17))
        assert on == 4  # 4-round bursts every 17 rounds

    def test_profiles_are_pure(self):
        """Deterministic functions of (commodity, round) — no state."""
        for profile in WORKLOAD_PROFILES.values():
            for k in range(3):
                first = [profile.active(k, r) for r in range(200)]
                again = [profile.active(k, r) for r in range(200)]
                assert first == again


# ----------------------------------------------------------------------
# The automaton
# ----------------------------------------------------------------------


class TestSystem:
    def make_system(self, n=5, count=2, **kwargs) -> MultiCommoditySystem:
        return MultiCommoditySystem(
            Grid(n), PARAMS, default_commodities(n, count), **kwargs
        )

    def test_fairness_no_commodity_starves(self):
        """The headline regression: crossing lanes contend at (1, 1)
        and round-robin token rotation must keep both flowing."""
        system = self.make_system()
        system.run(200)
        for name in system.table.names():
            assert system.consumed_by_commodity[name] > 0, (
                f"commodity {name} starved at the contended crossing"
            )
        assert system.detect_waiting_cycles() == []

    def test_type_exclusivity_and_conservation_every_round(self):
        system = self.make_system(n=6, count=3, workload="bursty")
        for _ in range(120):
            system.update()
            assert system.check_type_exclusive() == []
            in_flight = system.in_flight_by_commodity()
            for name in system.table.names():
                produced = system.produced_by_commodity[name]
                consumed = system.consumed_by_commodity[name]
                assert produced == consumed + in_flight[name]
        assert system.total_produced == sum(
            system.produced_by_commodity.values()
        )
        assert system.total_consumed == sum(
            system.consumed_by_commodity.values()
        )

    def test_ecmp_tie_split_varies_by_commodity(self):
        """Equal-cost neighbors are split across commodities: with two
        tied candidates, commodity 0 and commodity 1 pick different
        next-hops at the same cell (the (dist, commodity, cell)
        tie-break)."""
        system = self.make_system(n=3)
        tied = {(0, 1): 1.0, (1, 0): 1.0}
        name = system.table.names()[0]
        for cid, cell in system.cells.items():
            cell.dists[name] = tied.get(cid, float("inf"))

        dists = system._int_dist_snapshots()[name]
        picks = {
            k: system._route_step(k, (1, 1), dists)[1] for k in (0, 1)
        }
        assert set(picks.values()) == {(0, 1), (1, 0)}
        for _, pick in picks.items():
            assert pick in tied

    def test_per_commodity_targets_initialized(self):
        """Before any round, each commodity's target is at distance 0 in
        its own table only."""
        system = plus_crossing()
        assert system.cells[(4, 2)].dists["eastbound"] == 0.0
        assert system.cells[(2, 4)].dists["northbound"] == 0.0
        assert system.cells[(4, 2)].dists["northbound"] == math.inf
        assert system.cells[(2, 4)].dists["eastbound"] == math.inf

    def test_route_tables_are_per_commodity(self):
        """Each commodity's table converges to its own distances, so the
        crossing cell routes the two commodities to different
        neighbors."""
        system = plus_crossing()
        system.run(10)
        assert system.cells[(0, 2)].dists["eastbound"] == 4.0
        assert system.cells[(2, 0)].dists["northbound"] == 4.0
        crossing = system.cells[(2, 2)]
        assert crossing.nexts["eastbound"] == (3, 2)
        assert crossing.nexts["northbound"] == (2, 3)

    def test_failed_cell_is_masked_for_every_commodity(self):
        system = plus_crossing()
        system.run(10)
        system.fail((3, 2))
        system.run(10)
        names = system.table.names()
        failed = system.cells[(3, 2)]
        assert all(math.isinf(failed.dists[name]) for name in names)
        assert all(failed.nexts[name] is None for name in names)
        for cid, cell in system.cells.items():
            for name in names:
                assert cell.nexts[name] != (3, 2), (cid, name)

    def test_workload_gates_production(self):
        class Never(WorkloadProfile):
            """Test profile: no commodity ever offers load."""

            name = "never"
            description = "off"

            def active(self, commodity_index, round_index):
                """Always inactive."""
                return False

        system = self.make_system(workload=Never())
        system.run(30)
        assert system.total_produced == 0
        assert system.entity_count() == 0

    def test_fail_recover_reroutes(self):
        """Failing a mid-lane cell reroutes commodity traffic around it;
        delivery continues and resumes through it after recovery."""
        system = self.make_system()
        system.run(40)
        before = dict(system.consumed_by_commodity)
        system.fail((2, 1))  # mid-lane on c0's west->east corridor
        system.run(60)
        after = dict(system.consumed_by_commodity)
        assert after["c0"] > before["c0"]  # rerouted around the crater
        assert system.cells[(2, 1)].failed
        system.recover((2, 1))
        assert not system.cells[(2, 1)].failed
        system.run(40)
        assert system.consumed_by_commodity["c0"] > after["c0"]
        assert system.check_type_exclusive() == []

    def test_residency_blocks_are_tagged(self):
        """When the crossing cell is resident to one commodity, the
        other commodity's blocked grants carry reason='residency'."""
        system = self.make_system()
        reasons = set()
        for _ in range(200):
            report = system.update()
            reasons.update(report.signal.block_reasons.values())
        assert "residency" in reasons


# ----------------------------------------------------------------------
# Gridlock and the waits-on-cycle detector
# ----------------------------------------------------------------------


class TestWaitingCycles:
    def test_hand_built_two_cycle_detected(self):
        """Two loaded cells whose resident commodities route through each
        other form a waits-on 2-cycle."""
        system = MultiCommoditySystem(
            Grid(4, 1),
            PARAMS,
            (
                Commodity(name="east", target=(3, 0), sources=((0, 0),)),
                Commodity(name="west", target=(0, 0), sources=((3, 0),)),
            ),
        )
        for uid, (cid, name, nxt) in enumerate(
            (((1, 0), "east", (2, 0)), ((2, 0), "west", (1, 0)))
        ):
            entity = Entity(uid=uid, x=cid[0] + 0.5, y=0.5)
            entity.commodity_name = name
            system.cells[cid].add_entity(entity)
            system.cells[cid].nexts[name] = nxt
        cycles = system.detect_waiting_cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {(1, 0), (2, 0)}

    def test_empty_cells_never_in_cycles(self):
        assert plus_crossing().detect_waiting_cycles() == []

    def test_detours_around_crashes_gridlock_and_are_detected(self):
        """Crashing the crossing cell and the two cells diagonal to it
        forces both commodities onto detours through the same cells in
        opposite directions. Under the residency rule the loaded cells
        end up in a cycle, each waiting on the next to drain, and
        neither commodity delivers again. Safety and type exclusivity
        hold throughout, and the waits-on detector names the jammed
        cells.

        One crash at (2, 2) is not enough here: ECMP tie-splitting
        spreads the two detours apart and both commodities keep
        delivering.
        """
        system = plus_crossing()
        system.run(50)
        for cid in ((2, 2), (3, 1), (1, 3)):
            system.fail(cid)
        stuck = dict(system.consumed_by_commodity)
        for _ in range(950):
            system.update()
            assert system.consumed_by_commodity == stuck
            assert check_safe(system) == []
            assert system.check_type_exclusive() == []
        cycles = system.detect_waiting_cycles()
        assert cycles, "the gridlock should be observable as a waits-on cycle"
        assert all(len(cycle) >= 2 for cycle in cycles)


# ----------------------------------------------------------------------
# Config, simulator, CLI wiring
# ----------------------------------------------------------------------


class TestWiring:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="workload requires commodities"):
            SimulationConfig(
                grid_width=5, params=PARAMS, rounds=10, workload="steady"
            )
        with pytest.raises(ValueError, match="mutually exclusive"):
            crossing_config(path=((0, 0), (0, 1)))
        with pytest.raises(ValueError, match="unknown workload"):
            crossing_config(workload="nope")
        with pytest.raises(ValueError, match="does not support"):
            crossing_config(engine="vectorized")
        with pytest.raises(ValueError, match="does not support shards"):
            crossing_config(engine="reference", shards=2)

    @pytest.mark.parametrize("engine", ["vectorized", "timed", "sharded"])
    def test_unsupported_engine_is_refused(self, monkeypatch, engine):
        """An engine that reads single-flow state is refused up front
        with the supported pair named, whether it comes from the config,
        the ``engine=`` argument or ``REPRO_ENGINE`` (input from outside
        the program)."""
        refusal = (
            rf"engine {engine!r} does not support multi-commodity systems; "
            r"choose from \['incremental', 'reference'\]"
        )
        with pytest.raises(ValueError, match=refusal):
            crossing_config(engine=engine)
        with pytest.raises(ValueError, match=refusal):
            build_simulation(crossing_config(), engine=engine)
        monkeypatch.setenv("REPRO_ENGINE", engine)
        with pytest.raises(ValueError, match=refusal):
            build_simulation(crossing_config())

    def test_config_round_trips_through_json(self):
        config = crossing_config(workload="flash-crowd", engine="incremental")
        clone = SimulationConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config

    def test_build_simulation_runs_monitored(self):
        result = build_simulation(
            crossing_config(
                workload="diurnal",
                fault=FaultSpec(pf=0.02, pr=0.2, protect_target=True),
            )
        ).run()
        assert result.monitor_violations == 0
        assert result.produced == result.consumed + result.in_flight

    def test_commodity_metrics_are_emitted(self):
        result = build_simulation(
            crossing_config(), observability=ObservabilityConfig(metrics=True)
        ).run()
        counters = result.metrics["counters"]
        gauges = result.metrics["gauges"]
        produced = consumed = 0
        for name in ("c0", "c1"):
            produced += counters[f"commodity.produced{{commodity={name}}}"]
            consumed += counters[f"commodity.consumed{{commodity={name}}}"]
            assert f"commodity.in_flight{{commodity={name}}}" in gauges
        assert produced == result.produced
        assert consumed == result.consumed

    def test_cli_run_smoke(self, capsys):
        assert (
            cli_main(
                [
                    "run",
                    "--commodities",
                    "2",
                    "--grid",
                    "5",
                    "--rounds",
                    "80",
                    "--workload",
                    "flash-crowd",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "commodities (produced/consumed/in-flight):" in out
        assert "c0:" in out and "c1:" in out

    def test_cli_workload_requires_commodities(self):
        with pytest.raises(SystemExit, match="requires --commodities"):
            cli_main(["run", "--workload", "bursty", "--rounds", "10"])
