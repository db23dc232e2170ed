"""Parent-vs-change parity check for the message-passing runtime.

Records per-round canonical state digests of every message-passing run
the repository has, so two source trees can be compared round by round:

* the ``timed`` engine through ``build_simulation`` on a 90-config
  matrix (6x6 and 8x8 open grids; jitter 0, 0.5, 1, 1.5 and 3 periods;
  all three token policies; no, light and heavy Bernoulli churn), with
  lenient monitors whose findings are recorded too;
* both legs of the ``netsim`` fuzz oracle (advert loss, latency jitter)
  on every net-enabled corpus scenario plus generated ones;
* ``benchmarks/bench_lossy.py``'s corridor at its six drop rates, a
  turning path, and four churned 6x6 open grids under advert loss.

It only uses interfaces present before and after the runtime was folded
into one engine (it adapts to either), so it runs against both trees:

    PYTHONPATH=/path/to/old/src python -m tests.netsim_parity dump old.json
    PYTHONPATH=src python -m tests.netsim_parity dump new.json
    python -m tests.netsim_parity compare old.json new.json

``compare`` prints every run that differs and exits 1 if any does.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.faults.model import BernoulliFaultModel
from repro.fuzz.generator import Scenario, generate_scenario
from repro.fuzz.oracles import NetworkOracle
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction, Grid
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.simulator import build_simulation
from repro.testing.differential import state_digest

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


def _drive(driver) -> tuple:
    """(step, system) for an old runtime object or a new engine."""
    if hasattr(driver, "system"):
        return driver.step, driver.system
    return getattr(driver, "run_round", driver.update), driver


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

    def record(self, scenario, driver, leg):
        step, system = _drive(driver)
        digests = []
        for _ in range(scenario.net.rounds):
            step()
            digests.append(_short(system))
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
    """A lossy message-passing run on either tree: (step, system, dropped)."""
    try:
        from repro.netsim.lossy import LossyNetwork
        from repro.netsim.runtime import MessagePassingSystem
    except ImportError:
        from repro.core.system import System
        from repro.netsim import LossyDelay, TimedEngine

        system = System(
            grid=grid, params=PARAMS, tid=tid, sources=sources,
            rng=random.Random(0),
        )
        for cid in failed:
            system.fail(cid)
        engine = TimedEngine(
            system, delay_model=LossyDelay(drop),
            delay_rng=random.Random(loss_seed),
        )
        return engine.step, system, lambda: engine.late_adverts
    system = MessagePassingSystem(
        grid=grid, params=PARAMS, tid=tid, sources=sources,
        rng=random.Random(0),
    )
    system.network = LossyNetwork(grid, drop, rng=random.Random(loss_seed))
    for cid in failed:
        system.fail(cid)
    return system.update, system, lambda: system.network.dropped


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


def dump(out: Path) -> None:
    record = {
        "timed": timed_matrix(),
        "netsim_oracle": network_oracle_legs(),
        "lossy": lossy_runs(),
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


def compare(old_path: Path, new_path: Path) -> int:
    old = json.loads(old_path.read_text())
    new = json.loads(new_path.read_text())
    failures = 0
    for section in ("timed", "netsim_oracle", "lossy"):
        if sorted(old[section]) != sorted(new[section]):
            print(f"{section}: different run sets")
            failures += 1
            continue
        for name in sorted(old[section]):
            a, b = old[section][name], new[section][name]
            if section == "timed":
                a, b = dict(a), dict(b)
                # The old timed engine never fired the phase hooks, so its
                # monitors could not check predicate H or Lemma 4.
                a.pop("violations")
                b.pop("violations")
                # The old engine counted a late advert when it arrived, the
                # new one when it is sent: adverts still in flight at the
                # horizon (possible above two periods of jitter) are
                # counted by the new engine only.
                late_a, late_b = a.pop("late_adverts"), b.pop("late_adverts")
                if late_a != late_b:
                    print(f"{section}/{name}: late adverts {late_a} -> {late_b}")
                    if late_b < late_a:
                        failures += 1
            if a != b:
                failures += 1
                print(f"{section}/{name}: differs")
    total = sum(len(old[s]) for s in ("timed", "netsim_oracle", "lossy"))
    print(f"{total - failures}/{total} runs identical")
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
