"""Workload generators.

- :mod:`repro.workloads.incast` — the Section 4 cyclic incast burst
  application driving the packet-level simulator.
- :mod:`repro.workloads.services` — the Section 3 production-service fleet
  model (five services, partition/aggregate burst arrival processes).
- :mod:`repro.workloads.scheduler` — the Section 5.2 sub-incast admission
  scheduler extension.
- :mod:`repro.workloads.mix` — deterministic elephant/mice flow plans for
  the leaf-spine sweep scenarios.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "incast": (
        "BurstResult", "FlowStateSampler", "IncastConfig",
        "IncastWorkload", "demand_per_flow_bytes"),
    "mix": (
        "ElephantMiceConfig", "FlowSpec", "flow_sizes", "plan_elephant_mice",
        "remote_ranks"),
    "partition_aggregate": (
        "PartitionAggregateConfig", "PartitionAggregateWorkload",
        "QueryResult"),
    "scheduler": ("IncastScheduler", "SchedulerConfig"),
    "services": ("SERVICE_PROFILES", "ServiceProfile"),
})
