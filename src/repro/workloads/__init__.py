"""Workload generators.

- :mod:`repro.workloads.incast` — the Section 4 cyclic incast burst
  application driving the packet-level simulator, with the Section 5.2
  sub-incast admission groups as an option (``IncastConfig.group_size``).
- :mod:`repro.workloads.services` — the Section 3 production-service fleet
  model (five services, partition/aggregate burst arrival processes).
- :mod:`repro.workloads.mix` — deterministic elephant/mice flow plans for
  the leaf-spine sweep scenarios.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "incast": (
        "BurstResult", "FlowStateSampler", "IncastConfig",
        "IncastWorkload", "demand_per_flow_bytes"),
    "mix": (
        "ElephantMiceConfig", "FlowPlan", "FlowSpec", "flow_sizes",
        "plan_elephant_mice", "remote_ranks"),
    "partition_aggregate": (
        "PartitionAggregateConfig", "PartitionAggregateWorkload",
        "QueryResult"),
    "services": ("SERVICE_PROFILES", "ServiceProfile"),
})
