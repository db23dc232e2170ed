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
  Signal, commodity-tagged Move/produce);
* :mod:`repro.multiflow.engine` — reference and incremental round
  engines over that automaton;
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

__all__ = [
    "Commodity",
    "CommodityTable",
    "default_commodities",
    "WORKLOAD_PROFILES",
    "WorkloadProfile",
    "resolve_workload",
]
