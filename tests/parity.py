"""Parent-vs-change parity check for the round engines.

Records per-round canonical state digests of the runs below, so two
source trees can be compared round by round:

* the ``timed`` engine through ``build_simulation`` on a 90-config
  matrix (6x6 and 8x8 open grids; jitter 0, 0.5, 1, 1.5 and 3 periods;
  all three token policies; no, light and heavy Bernoulli churn), with
  lenient monitors whose findings are recorded too;
* both legs of the ``netsim`` fuzz oracle (advert loss, latency jitter)
  on every net-enabled corpus scenario plus generated ones;
* ``benchmarks/bench_lossy.py``'s corridor at its six drop rates, a
  turning path, and four churned 6x6 open grids under advert loss;
* the ``reference`` and ``incremental`` engines, each on its own, with
  the state digest and a digest of the canonical round report every
  round, and a digest of the monitor violations (round, property and
  detail, in order) at the end: ``random_multiflow_config`` seeds 0-39 with and without
  faults, ``benchmarks/bench_multiflow.py``'s three crossings, the
  multi-commodity corpus scenarios, and ``random_config`` seeds 0-25;
* the two baselines, which no lockstep compares to anything:
  ``UnsafeSystem`` and ``CentralizedSystem`` (reliable and flaky
  coordinator) on churned open grids, digested the same way;
* four target relocations under Bernoulli churn (across districts,
  onto district rims, back to the start) on the ``reference``,
  ``incremental`` and ``sharded`` engines.

It uses only interfaces that both trees have, so it runs against each:

    PYTHONPATH=/path/to/old/src python -m tests.parity dump old.json
    PYTHONPATH=src python -m tests.parity dump new.json
    PYTHONPATH=src python -m tests.parity compare old.json new.json

``compare`` prints every run that differs and exits 1 if any does.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Dict, List

from repro.baselines import CentralizedSystem, CoordinatorSpec, UnsafeSystem
from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.faults.injector import FaultInjector
from repro.faults.model import BernoulliFaultModel
from repro.fuzz.generator import Scenario, generate_scenario
from repro.fuzz.oracles import NetworkOracle
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction, Grid
from repro.monitors.recorder import MonitorSuite
from repro.multiflow.commodities import default_commodities
from repro.netsim import LossyDelay, TimedEngine
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.simulator import Simulator, build_simulation
from repro.testing.differential import (
    canonical_report,
    random_config,
    random_multiflow_config,
    state_digest,
)

CORPUS = Path(__file__).resolve().parent / "corpus"
PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)
CHURN = {"none": (0.0, 0.0), "light": (0.02, 0.3), "heavy": (0.06, 0.3)}


def _short(system) -> str:
    return state_digest(system)[:16]


def timed_matrix(rounds: int = 120) -> Dict[str, Dict]:
    runs = {}
    index = 0
    for n in (6, 8):
        for jitter in (0.0, 0.5, 1.0, 1.5, 3.0):
            for policy in ("roundrobin", "sticky", "random"):
                for churn, (pf, pr) in CHURN.items():
                    config = SimulationConfig(
                        grid_width=n,
                        params=PARAMS,
                        rounds=rounds,
                        tid=(n - 1, n - 1),
                        sources=((0, 0), (n - 1, 0), (0, n // 2)),
                        token_policy=policy,
                        fault=FaultSpec(pf=pf, pr=pr, protect_target=True),
                        seed=index,
                        engine="timed",
                        jitter=jitter,
                    )
                    sim = build_simulation(config)
                    sim.monitors.strict = False
                    digests = []
                    for _ in range(rounds):
                        sim.step()
                        digests.append(_short(sim.system))
                    runs[f"{n}x{n}/j{jitter}/{policy}/{churn}"] = {
                        "digests": digests,
                        "consumed": sim.system.total_consumed,
                        "late_adverts": sim.engine.late_adverts,
                        "violations": [
                            (v.round_index, v.property_name, v.detail)
                            for v in sim.monitors.violations
                        ],
                    }
                    index += 1
    return runs


def network_oracle_legs(generated: int = 40) -> Dict[str, List[str]]:
    scenarios = {
        path.stem: Scenario.from_dict(json.loads(path.read_text())["scenario"])
        for path in sorted(CORPUS.glob("seed-*.json"))
    }
    for seed in range(generated):
        scenario = generate_scenario(seed)
        if scenario.net.enabled:
            scenarios[f"gen-{seed}"] = scenario
    recorded: Dict[str, List[str]] = {}

    def record(self, scenario, engine, leg):
        digests = []
        for _ in range(scenario.net.rounds):
            engine.step()
            digests.append(_short(engine.system))
        recorded[f"{current}/{leg}"] = digests
        return []

    original = NetworkOracle._degradation_rounds
    NetworkOracle._degradation_rounds = record
    try:
        for current, scenario in scenarios.items():
            if not scenario.net.enabled or scenario.config.commodities:
                continue
            # Both legs, whichever knob the scenario happens to enable.
            net = replace(
                scenario.net,
                drop=scenario.net.drop or 0.3,
                jitter=scenario.net.jitter or 0.9,
            )
            NetworkOracle().check(replace(scenario, net=net))
    finally:
        NetworkOracle._degradation_rounds = original
    return recorded


def _lossy(grid, tid, sources, drop, loss_seed, failed=()):
    """A lossy message-passing run: (step, system, dropped)."""
    system = System(
        grid=grid, params=PARAMS, tid=tid, sources=sources, rng=random.Random(0)
    )
    for cid in failed:
        system.fail(cid)
    engine = TimedEngine(
        system, delay_model=LossyDelay(drop), delay_rng=random.Random(loss_seed)
    )
    return engine.step, system, lambda: engine.late_adverts


def lossy_runs() -> Dict[str, Dict]:
    runs = {}
    corridor = straight_path((1, 0), Direction.NORTH, 8)
    turning = turns_path((0, 0), 8, 3)
    layouts = {"corridor": (corridor, 1200), "turning": (turning, 400)}
    for name, (path, rounds) in layouts.items():
        for drop in (0.0, 0.1, 0.2, 0.4, 0.6, 0.8):
            grid = Grid(8)
            failed = [cid for cid in grid.cells() if cid not in path]
            step, system, dropped = _lossy(
                grid, path.target, {path.source: EagerSource()}, drop, 1, failed
            )
            digest = hashlib.sha256()
            for _ in range(rounds):
                step()
                digest.update(_short(system).encode())
            runs[f"{name}/drop{drop}"] = {
                "digest": digest.hexdigest()[:16],
                "consumed": system.total_consumed,
                "dropped": dropped(),
            }
    for seed in range(4):
        grid = Grid(6)
        step, system, dropped = _lossy(
            grid, (5, 5), {(0, 0): EagerSource(), (5, 0): EagerSource()},
            0.2, seed + 1,
        )
        model = BernoulliFaultModel(pf=0.04, pr=0.3)
        rng = random.Random(seed)
        digests = []
        for round_index in range(150):
            decision = model.decide(
                round_index,
                sorted(system.non_faulty_cells() - {(5, 5)}),
                sorted(system.failed_cells()),
                rng,
            )
            for cid in sorted(decision.fail):
                system.fail(cid)
            for cid in sorted(decision.recover):
                system.recover(cid)
            step()
            digests.append(_short(system))
        runs[f"churn6x6/seed{seed}"] = {
            "digests": digests,
            "consumed": system.total_consumed,
            "dropped": dropped(),
        }
    return runs


def _digested_run(sim: Simulator, rounds: int, relocations=None) -> Dict:
    """Step ``sim``, moving the target before the rounds ``relocations``
    names; the state and report digests of every round."""
    if sim.monitors is not None:
        sim.monitors.strict = False
    states, reports = [], []
    for round_index in range(rounds):
        cell = (relocations or {}).get(round_index)
        if cell is not None:
            sim.system.recover(cell)  # a no-op unless churn failed it
            sim.system.relocate_target(cell)
        report = sim.step()
        states.append(_short(sim.system))
        parts = repr(canonical_report(report)).encode()
        reports.append(hashlib.sha256(parts).hexdigest()[:16])
    sim.engine.close()
    violations = sim.monitors.violations if sim.monitors else []
    return {
        "states": states,
        "reports": reports,
        "consumed": sim.system.total_consumed,
        "violations": len(violations),
        "violation_digest": _violation_digest(violations),
    }


def _violation_digest(violations) -> str:
    """Digest of the monitor violations in the order they were recorded:
    each one's round, property and detail text."""
    digest = hashlib.sha256()
    for v in violations:
        digest.update(repr((v.round_index, v.property_name, v.detail)).encode())
    return digest.hexdigest()[:16]


def _engine_run(config: SimulationConfig, engine: str, relocations=None) -> Dict:
    return _digested_run(
        build_simulation(config, engine=engine), config.rounds, relocations
    )


def engine_runs() -> Dict[str, Dict]:
    configs = {}
    for seed in range(40):
        configs[f"multiflow/faulting/{seed}"] = random_multiflow_config(seed)
        configs[f"multiflow/clean/{seed}"] = random_multiflow_config(
            seed, faulting=False
        )
    crossings = {
        "steady_2_crossing": (2, "steady"),
        "steady_4_crossing": (4, "steady"),
        "flash_crowd_4_crossing": (4, "flash-crowd"),
    }
    for name, (count, workload) in crossings.items():
        configs[f"multiflow/{name}"] = SimulationConfig(
            grid_width=8,
            params=Parameters(l=0.25, rs=0.05, v=0.25),
            rounds=400,
            commodities=default_commodities(8, count),
            workload=workload,
            monitors=False,
            seed=7,
        )
    for path in sorted(CORPUS.glob("seed-*.json")):
        scenario = Scenario.from_dict(json.loads(path.read_text())["scenario"])
        if scenario.config.commodities:
            configs[f"multiflow/corpus/{path.stem}"] = scenario.config
    for seed in range(26):
        configs[f"single/{seed}"] = random_config(seed)
    return {
        f"{name}/{engine}": _engine_run(config, engine)
        for name, config in configs.items()
        for engine in ("reference", "incremental")
    }


def baseline_runs() -> Dict[str, Dict]:
    baselines = {
        "unsafe": UnsafeSystem,
        "centralized-reliable": partial(
            CentralizedSystem, coordinator=CoordinatorSpec(period=4)
        ),
        "centralized-flaky": partial(
            CentralizedSystem, coordinator=CoordinatorSpec(period=3, pf=0.1, pr=0.3)
        ),
    }
    runs = {}
    for name, make in baselines.items():
        for seed in range(4):
            system = make(
                grid=Grid(6),
                params=PARAMS,
                tid=(5, 5),
                sources={(0, 0): EagerSource(), (5, 0): EagerSource()},
                rng=random.Random(seed),
            )
            injector = FaultInjector(
                BernoulliFaultModel(pf=0.03, pr=0.3, immune=frozenset({(5, 5)})),
                rng=random.Random(100 + seed),
            )
            sim = Simulator(system, 150, injector=injector, monitors=MonitorSuite())
            runs[f"{name}/seed{seed}"] = _digested_run(sim, 150)
    return runs


#: Target relocations on an 8x8 grid: across districts, onto the rim
#: cells of the row bands either side of the middle, back to the start.
RELOCATIONS = {20: (2, 1), 40: (5, 4), 60: (7, 3), 80: (6, 6)}


def relocation_runs() -> Dict[str, Dict]:
    runs = {}
    for seed in range(3):
        config = SimulationConfig(
            grid_width=8,
            params=PARAMS,
            rounds=110,
            tid=(6, 6),
            sources=((0, 0), (0, 7)),
            fault=FaultSpec(pf=0.02, pr=0.3),
            seed=seed,
            shards=2,
        )
        for engine in ("reference", "incremental", "sharded"):
            runs[f"seed{seed}/{engine}"] = _engine_run(config, engine, RELOCATIONS)
    return runs


SECTIONS = ("timed", "netsim_oracle", "lossy", "engines", "baselines", "relocations")


def dump(out: Path) -> None:
    record = {
        "timed": timed_matrix(),
        "netsim_oracle": network_oracle_legs(),
        "lossy": lossy_runs(),
        "engines": engine_runs(),
        "baselines": baseline_runs(),
        "relocations": relocation_runs(),
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    timed = record["timed"]
    print(
        f"timed configs: {len(timed)}, "
        f"monitor violations: {sum(len(r['violations']) for r in timed.values())}, "
        f"late adverts: {sum(r['late_adverts'] for r in timed.values())}"
    )
    print(f"netsim oracle legs: {len(record['netsim_oracle'])}")
    for name, run in sorted(record["lossy"].items()):
        print(f"{name}: consumed {run['consumed']}, dropped {run['dropped']}")
    engines = record["engines"]
    multiflow = [run for name, run in engines.items() if name.startswith("multiflow/")]
    print(
        f"engine runs: {len(engines)} ({len(multiflow)} multi-commodity), "
        f"monitor violations: {sum(run['violations'] for run in engines.values())}"
    )
    for section in ("baselines", "relocations"):
        for name, run in sorted(record[section].items()):
            print(
                f"{section}/{name}: consumed {run['consumed']}, "
                f"monitor violations {run['violations']}"
            )


def compare(old_path: Path, new_path: Path) -> int:
    old = json.loads(old_path.read_text())
    new = json.loads(new_path.read_text())
    failures = 0
    for section in SECTIONS:
        if sorted(old[section]) != sorted(new[section]):
            print(f"{section}: different run sets")
            failures += 1
            continue
        differing = [
            name for name in sorted(old[section])
            if old[section][name] != new[section][name]
        ]
        for name in differing:
            print(f"{section}/{name}: differs")
        failures += len(differing)
        total = len(old[section])
        print(f"{section}: {total - len(differing)}/{total} runs identical")
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(Path(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
