"""First-class multi-commodity cellular flows.

The authors' journal extension (*Safe and Stabilizing Distributed
Multi-Path Cellular Flows*, arXiv:1209.2058) generalizes the ICDCS'10
protocol from one flow to many concurrent (source, target) *commodity*
pairs with per-commodity routing tables and multi-path route
diversity. This package is that generalization.

Layout:

* :mod:`repro.multiflow.commodities` — ``Commodity`` pairs and the
  validated ``CommodityTable``;
* :mod:`repro.multiflow.workload` — demand as ``WorkloadProfile``
  schedules behind the ``WORKLOAD_PROFILES`` registry;
* :mod:`repro.multiflow.system` — the multi-commodity round automaton
  (per-commodity Route with ECMP tie-splitting, residency-aware
  Signal, commodity-tagged Move/produce), run by the core
  ``reference`` and ``incremental`` engines (:data:`MULTIFLOW_ENGINES`);
* :mod:`repro.multiflow.monitors` — the monitor suite extended with
  type-exclusivity and per-commodity conservation checks.

See ``docs/multiflow.md`` for the protocol recap and the demand
library; the surface is wired through ``SimulationConfig``
(``commodities=`` / ``workload=``), ``build_simulation``, the CLI
(``run --commodities/--workload``), the fuzz generator, and the
lockstep differential harness, so it inherits the full verification
stack.
"""

from repro.multiflow.commodities import (
    Commodity,
    CommodityTable,
    default_commodities,
)
from repro.multiflow.workload import (
    WORKLOAD_PROFILES,
    WorkloadProfile,
    resolve_workload,
)

#: The round engines that run a multi-commodity system: the rest of
#: ``repro.sim.engine.ENGINES`` read single-flow state (``tid``) and are
#: refused by config validation and by ``make_engine``.
MULTIFLOW_ENGINES = ("reference", "incremental")

__all__ = [
    "MULTIFLOW_ENGINES",
    "Commodity",
    "CommodityTable",
    "default_commodities",
    "WORKLOAD_PROFILES",
    "WorkloadProfile",
    "resolve_workload",
]
