"""The vectorized engine: 3-way differential matrix plus array-core units.

Mirrors ``tests/test_engine_differential.py`` for the third engine: the
lockstep harness sweeps the same 26-seed faulting matrix (plus
fault-free, corridor, free-form and the committed fuzz corpus) asserting
the array-native engine is observationally identical to the full-sweep
reference — same per-round state digests, same reports, same monitor
verdicts, same metrics, byte-identical traces.

The array-core units then pin the vectorized kernels against the scalar
originals property-by-property (hypothesis): :func:`route_relax` against
``_route_step`` on random dist lattices with random failure masks, and
the ``NEPrev`` masks against ``compute_ne_prev``. The engine's Signal
runs the one scalar gap rule, ``gap_clear``, whose boundary behaviour
``tests/test_kernels.py`` pins. A wrong-sentinel mutant proves the
harness catches the representation bug class this engine could
plausibly introduce.

Everything here requires numpy (the package's one soft dependency); the
module is skipped wholesale without it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.arrays import HAVE_NUMPY

if not HAVE_NUMPY:  # pragma: no cover - CI installs numpy
    pytest.skip("numpy not installed", allow_module_level=True)

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.arrays import (
    NO_CELL,
    EntityArrays,
    GridArrays,
    ne_prev_masks,
    route_relax,
)
from repro.core.cell import DIST_SENTINEL, dist_from_int
from repro.core.route import _route_step
from repro.core.system import System
from repro.fuzz.generator import Scenario
from repro.grid.topology import Grid
from repro.obs.instrument import ObservabilityConfig
from repro.sim import engine as engine_module
from repro.sim.engine import VectorizedEngine, make_engine
from repro.sim.simulator import build_simulation
from repro.testing.differential import (
    DifferentialMismatch,
    random_config,
    run_lockstep,
)
from tests.test_engine_differential import corridor_config

FAULTING_SEEDS = range(26)
FAULT_FREE_SEEDS = range(100, 106)

SEEDED = settings(derandomize=True, deadline=None, max_examples=150)

CORPUS_FILES = sorted((Path(__file__).parent / "corpus").glob("seed-*.json"))


# ----------------------------------------------------------------------
# The 3-way differential matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", FAULTING_SEEDS)
def test_faulting_configs_match_reference(seed):
    outcome = run_lockstep(random_config(seed, faulting=True), engine_b="vectorized")
    assert len(outcome.digests) == outcome.config.rounds


@pytest.mark.parametrize("seed", FAULT_FREE_SEEDS)
def test_fault_free_configs_match_reference(seed):
    run_lockstep(random_config(seed, faulting=False), engine_b="vectorized")


@pytest.mark.parametrize("seed", [2, 9, 17])
def test_incremental_and_vectorized_agree(seed):
    """Close the triangle: the two optimized engines against each other."""
    run_lockstep(
        random_config(seed, faulting=True),
        engine_a="incremental",
        engine_b="vectorized",
    )


def test_paper_corridor_matches_reference():
    run_lockstep(corridor_config(), engine_b="vectorized")


def test_free_form_multi_source_matches_reference():
    config = random_config(4242, faulting=True)
    run_lockstep(config, engine_b="vectorized")


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_replays_identically_under_vectorized(path):
    """Every committed fuzz scenario also lockstep-matches the reference
    under the vectorized engine (the differential oracle runs this leg
    too; this pins it per-file with monitors on where configured)."""
    from dataclasses import replace

    record = json.loads(path.read_text())
    scenario = Scenario.from_dict(record["scenario"])
    if scenario.config.commodities:
        pytest.skip("vectorized engine has no multi-commodity support")
    config = replace(scenario.config, monitors=False)
    run_lockstep(config, engine_b="vectorized")


def test_traces_and_metrics_are_byte_identical(tmp_path):
    config = random_config(4242, faulting=True)
    trace_a = tmp_path / "reference.jsonl"
    trace_b = tmp_path / "vectorized.jsonl"
    outcome = run_lockstep(
        config,
        engine_b="vectorized",
        observability_a=ObservabilityConfig(metrics=True, trace_path=str(trace_a)),
        observability_b=ObservabilityConfig(metrics=True, trace_path=str(trace_b)),
    )
    assert outcome.result_a.metrics is not None
    assert outcome.result_a.metrics == outcome.result_b.metrics
    assert trace_a.read_bytes() == trace_b.read_bytes()
    assert trace_a.stat().st_size > 0


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------


def test_engine_selection_reaches_vectorized(monkeypatch):
    assert (
        build_simulation(corridor_config(engine="vectorized")).engine.name
        == "vectorized"
    )
    monkeypatch.setenv("REPRO_ENGINE", "vectorized")
    assert build_simulation(corridor_config()).engine.name == "vectorized"
    assert isinstance(
        build_simulation(corridor_config()).engine, VectorizedEngine
    )


def test_cell_observer_chaining_preserved():
    """Installing the engine must not eat a pre-existing observer."""
    simulator = build_simulation(corridor_config(rounds=10), engine="reference")
    seen = []
    simulator.system.cell_observer = lambda event, cid: seen.append((event, cid))
    VectorizedEngine(simulator.system)
    simulator.system.fail((1, 3))
    simulator.system.recover((1, 3))
    assert seen == [("fail", (1, 3)), ("recover", (1, 3))]


def test_resync_restores_a_stale_mirror():
    """Direct state mutation without events goes stale; resync() heals."""
    simulator = build_simulation(
        corridor_config(rounds=10), engine="vectorized"
    )
    engine = simulator.engine
    state = simulator.system.cells[(1, 3)]
    state.dist = 99.0  # direct mutation, no event fires
    k = engine.arrays.flat((1, 3))
    assert engine.arrays.dist[k] != 99
    engine.resync()
    assert engine.arrays.dist[k] == 99


# ----------------------------------------------------------------------
# Array-core units
# ----------------------------------------------------------------------


class TestGridArrays:
    def test_flat_index_is_row_major(self):
        """Ascending flat order must equal Grid.cells() iteration order —
        the property every report-ordering argument rests on."""
        grid = Grid(4, 3)
        arrays = GridArrays(4, 3)
        for k, cid in enumerate(grid.cells()):
            assert arrays.flat(cid) == k
            assert arrays.cell(k) == cid

    def test_from_system_round_trips(self):
        system = build_simulation(corridor_config(rounds=10)).system
        system.update()
        arrays = GridArrays.from_system(system)
        for cid, state in system.cells.items():
            k = arrays.flat(cid)
            assert dist_from_int(int(arrays.dist[k])) == state.dist
            encoded = int(arrays.next[k])
            assert (None if encoded == NO_CELL else arrays.cell(encoded)) == (
                state.next_id
            )
            assert bool(arrays.failed[k]) == state.failed
            assert int(arrays.member_count[k]) == len(state.members)


class TestEntityArrays:
    def test_packs_in_cell_then_uid_order(self):
        system = build_simulation(corridor_config(rounds=10)).system
        for _ in range(12):
            system.update()
        packed = EntityArrays.from_system(system)
        assert len(packed) == system.entity_count()
        order = list(zip(packed.cell.tolist(), packed.uid.tolist()))
        assert order == sorted(order)
        counts = packed.counts(system.grid.width * system.grid.height)
        for cid, state in system.cells.items():
            k = cid[1] * system.grid.width + cid[0]
            assert counts[k] == len(state.members)

    def test_positions_are_exact(self):
        system = build_simulation(corridor_config(rounds=10)).system
        for _ in range(8):
            system.update()
        packed = EntityArrays.from_system(system)
        by_uid = {
            e.uid: e
            for state in system.cells.values()
            for e in state.members.values()
        }
        for uid, x, y in zip(packed.uid, packed.x, packed.y):
            assert by_uid[int(uid)].x == float(x)
            assert by_uid[int(uid)].y == float(y)


@st.composite
def dist_lattices(draw):
    """A small grid with random integral dists, sentinels, and failures."""
    width = draw(st.integers(min_value=2, max_value=5))
    height = draw(st.integers(min_value=2, max_value=5))
    size = width * height
    dists = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=12),
                st.just(DIST_SENTINEL),
            ),
            min_size=size,
            max_size=size,
        )
    )
    failed = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return width, height, dists, failed


@given(dist_lattices())
@SEEDED
def test_route_relax_matches_route_step(lattice):
    """The whole-grid relaxation equals the scalar Route at every cell —
    including the (dist, id) tie-break — on arbitrary dist/failure
    lattices."""
    width, height, dists, failed = lattice
    grid = Grid(width, height)
    arrays = GridArrays(width, height)
    arrays.dist = np.asarray(dists, dtype=np.int64)
    arrays.failed = np.asarray(failed, dtype=bool)

    new_dist, new_next = route_relax(arrays)

    snapshot = {
        cid: DIST_SENTINEL if failed[arrays.flat(cid)] else dists[arrays.flat(cid)]
        for cid in grid.cells()
    }
    for cid in grid.cells():
        k = arrays.flat(cid)
        expected_dist, expected_next = _route_step(grid, cid, snapshot)
        assert dist_from_int(int(new_dist[k])) == expected_dist, cid
        encoded = int(new_next[k])
        assert (None if encoded == NO_CELL else arrays.cell(encoded)) == (
            expected_next
        ), cid


def test_ne_prev_masks_match_scalar_compute():
    """The mask form of NEPrev equals compute_ne_prev on a live system."""
    from repro.core.signal import compute_ne_prev

    system = build_simulation(corridor_config(rounds=10)).system
    for _ in range(10):
        system.update()
    arrays = GridArrays.from_system(system)
    west, south, north, east = ne_prev_masks(arrays)
    width = arrays.width
    for cid, state in system.cells.items():
        if state.failed:
            continue
        k = arrays.flat(cid)
        from_masks = set()
        if west[k]:
            from_masks.add(arrays.cell(k - 1))
        if south[k]:
            from_masks.add(arrays.cell(k - width))
        if north[k]:
            from_masks.add(arrays.cell(k + width))
        if east[k]:
            from_masks.add(arrays.cell(k + 1))
        assert from_masks == compute_ne_prev(system.grid, system.cells, cid), cid


# ----------------------------------------------------------------------
# Mutation test: a planted wrong-sentinel bug must be caught
# ----------------------------------------------------------------------


class _WrongSentinelEngine(VectorizedEngine):
    """MUTANT: the Route relaxation observes failed cells at dist 0
    instead of the infinity sentinel — the representation bug where
    "crashed" aliases "at the target", making every failed cell a
    routing black hole. (Clearing the mask is part of the plant:
    ``route_relax`` itself re-masks failed cells to the sentinel, so the
    wrong value must reach the effective view to be observed.)"""

    def _route_phase(self):
        failed = self.arrays.failed.copy()
        self.arrays.dist[failed] = 0
        self.arrays.failed[:] = False
        try:
            return super()._route_phase()
        finally:
            self.arrays.failed[:] = failed


def test_harness_catches_wrong_sentinel(monkeypatch):
    monkeypatch.setitem(engine_module.ENGINES, "vectorized", _WrongSentinelEngine)
    with pytest.raises(DifferentialMismatch):
        run_lockstep(corridor_config(), engine_b="vectorized")


def test_unmutated_registry_after_mutation_tests():
    assert engine_module.ENGINES["vectorized"] is VectorizedEngine
    assert make_engine(
        "vectorized", build_simulation(corridor_config(rounds=5)).system
    ).name == "vectorized"
