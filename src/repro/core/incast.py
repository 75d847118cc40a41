"""Incast classification (Section 3.3).

Historically "incast" meant any many-to-one convergence, but multiple flows
per host are standard practice in datacenters and modern CCAs handle a few
dozen flows well. The paper therefore classifies a burst as an *incast*
only when it involves at least 25 active flows.
"""

from __future__ import annotations

from repro.core.bursts import Burst

INCAST_FLOW_THRESHOLD = 25
"""Minimum active flows for a burst to count as an incast (the paper's
definition)."""

LOW_MODE_CUTOFF_FLOWS = 20
"""Flow count below which a burst belongs to the low "cliff" mode of a
bimodal service (Figure 2c)."""


def is_incast(burst: Burst,
              flow_threshold: int = INCAST_FLOW_THRESHOLD) -> bool:
    """Whether ``burst`` qualifies as an incast."""
    return burst.max_active_flows >= flow_threshold


def incast_fraction(bursts: list[Burst],
                    flow_threshold: int = INCAST_FLOW_THRESHOLD) -> float:
    """Fraction of ``bursts`` that are incasts."""
    if not bursts:
        return 0.0
    return sum(is_incast(b, flow_threshold) for b in bursts) / len(bursts)


def low_mode_fraction(bursts: list[Burst],
                      cutoff_flows: int = LOW_MODE_CUTOFF_FLOWS) -> float:
    """Fraction of bursts below ``cutoff_flows`` — the "cliff" that reveals
    a bimodal workload (storage and aggregator in Figure 2c)."""
    if not bursts:
        return 0.0
    return sum(b.max_active_flows < cutoff_flows for b in bursts) / len(bursts)
