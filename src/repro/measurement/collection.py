"""Fleet measurement campaigns (the Section 3 study shape).

The paper collects two campaigns:

- the *daily* campaign: 2-second traces from 20 hosts per service, nine
  times through a day (Figures 1, 2, 4);
- the *18-hour* campaign: 2-second traces every 10 minutes for 18 hours
  (Figure 3a's temporal-stability series — 108 snapshots).

The experiments run three shapes at a workload scale, each the box of
hosts x snapshots its scale rule gives: Table 1's small *sampling*
campaign, the daily campaign (Figures 2 and 4) and the stability campaign
(Figure 3). :data:`CAMPAIGN_SHAPES` lists the rules smallest first; the
boxes nest at every finite positive scale.

Every capture is named by ``(seed, service, host, snapshot)``: its RNG
streams derive from that name alone, and a service's regime sequence is a
Markov chain drawn one snapshot at a time, so the first ``n`` regimes do
not depend on how many follow. A capture is therefore the same bytes in
whichever campaign — and whichever tile of it (:func:`run_capture_tile`)
— produces it.

:func:`run_campaign` generates any shape from the synthetic fleet and
returns per-trace burst summaries, keeping memory bounded by discarding the
raw traces unless asked to retain them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.metrics import TraceSummary, summarize_trace
from repro.measurement.records import HostTrace, TraceMeta
from repro.netsim.fluid import FluidConfig
from repro.simcore.random import RngHub
from repro.workloads.services import (SERVICE_PROFILES, generate_host_trace,
                                      host_rate_multiplier, regime_sequence)


@dataclass
class CampaignConfig:
    """Shape of a measurement campaign (defaults: the Figures 1/2/4 daily
    campaign, 20 hosts x 9 snapshots)."""

    services: tuple[str, ...] = tuple(SERVICE_PROFILES)
    hosts_per_service: int = 20
    n_snapshots: int = 9
    snapshot_spacing_s: float = 600.0
    trace_duration_ms: int = 2000
    seed: int = 0
    keep_traces: bool = False

    def __post_init__(self) -> None:
        if self.hosts_per_service <= 0:
            raise ValueError("hosts_per_service must be positive")
        if self.n_snapshots <= 0:
            raise ValueError("n_snapshots must be positive")
        if self.snapshot_spacing_s < 0:
            raise ValueError("snapshot_spacing_s must not be negative")
        if self.trace_duration_ms <= 0:
            raise ValueError("trace_duration_ms must be positive")
        unknown = set(self.services) - set(SERVICE_PROFILES)
        if unknown:
            raise ValueError(f"unknown services: {sorted(unknown)}")

    @classmethod
    def stability(cls, **overrides) -> "CampaignConfig":
        """The Figure 3 campaign: every 10 minutes over 18 hours."""
        overrides.setdefault("n_snapshots", 108)
        return cls(**overrides)


@dataclass
class FleetCampaign:
    """Results of one campaign: per-service trace summaries."""

    config: CampaignConfig
    summaries: dict[str, list[TraceSummary]] = field(default_factory=dict)
    traces: dict[str, list[HostTrace]] = field(default_factory=dict)
    regimes: dict[str, list[int]] = field(default_factory=dict)

    def pooled(self, service: str, attribute: str) -> np.ndarray:
        """Pool a per-burst metric across every trace of ``service``.

        ``attribute`` names a :class:`TraceSummary` array property, e.g.
        ``"flow_counts"`` or ``"marked_fractions"``.
        """
        parts = [getattr(s, attribute) for s in self.summaries[service]]
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def burst_frequencies(self, service: str) -> np.ndarray:
        """Per-trace burst frequency (Figure 2a samples)."""
        return np.asarray([s.burst_frequency_hz
                           for s in self.summaries[service]])


def sampling_campaign_config(scale: float, seed: int) -> CampaignConfig:
    """Table 1's small sampling campaign (8 hosts x 3 snapshots at
    scale=1), behind its measured columns."""
    hosts = max(2, int(round(8 * scale)))
    snapshots = max(1, int(round(3 * scale)))
    return CampaignConfig(hosts_per_service=hosts, n_snapshots=snapshots,
                          seed=seed)


def daily_campaign_config(scale: float, seed: int) -> CampaignConfig:
    """The paper's daily campaign shape (20 hosts x 9 snapshots at
    scale=1), shared verbatim by Figures 2 and 4."""
    hosts = max(2, int(round(20 * scale)))
    snapshots = max(1, int(round(9 * scale)))
    return CampaignConfig(hosts_per_service=hosts, n_snapshots=snapshots,
                          seed=seed)


def stability_campaign_config(scale: float, seed: int) -> CampaignConfig:
    """The 18-hour stability campaign shape (20 hosts, 108 snapshots at
    scale=1)."""
    hosts = max(3, int(round(20 * scale)))
    snapshots = max(4, int(round(108 * scale)))
    return CampaignConfig.stability(
        hosts_per_service=hosts, n_snapshots=snapshots, seed=seed)


#: The experiments' campaign shapes, smallest first. Every coefficient
#: and floor is at least the previous shape's, so at any finite positive
#: scale each box of hosts x snapshots contains the one before it.
CAMPAIGN_SHAPES = (sampling_campaign_config, daily_campaign_config,
                   stability_campaign_config)


def run_capture_tile(
        cfg: CampaignConfig, service: str, hosts: range, snapshots: range,
        fluid_config: Optional[FluidConfig] = None
) -> tuple[list[TraceSummary], list[int], list[HostTrace]]:
    """Generate and summarize the captures ``hosts x snapshots`` of one
    service, host-major.

    Reads ``cfg``'s seed, snapshot spacing, trace duration and
    ``keep_traces``, not its host or snapshot counts: a capture depends on
    its ``(seed, service, host, snapshot)`` name only, so any rectangle of
    a campaign is generated here on its own. Returns ``(summaries,
    regimes, kept_traces)``, where ``regimes`` covers snapshots ``[0,
    snapshots.stop)`` and ``kept_traces`` is empty unless
    ``cfg.keep_traces`` is set.
    """
    fluid = fluid_config or FluidConfig()
    hub = RngHub(cfg.seed)
    profile = SERVICE_PROFILES[service]
    regime_rng = hub.fresh(f"{service}/regimes")
    regimes = regime_sequence(profile, snapshots.stop, regime_rng)
    summaries: list[TraceSummary] = []
    kept: list[HostTrace] = []
    for host_id in hosts:
        host_rng = hub.fresh(f"{service}/host{host_id}")
        rate_mult = host_rate_multiplier(profile, host_rng)
        for snapshot in snapshots:
            trace_rng = hub.fresh(
                f"{service}/host{host_id}/snap{snapshot}")
            meta = TraceMeta(
                service=service, host_id=host_id,
                snapshot_index=snapshot,
                snapshot_time_s=snapshot * cfg.snapshot_spacing_s)
            trace = generate_host_trace(
                profile, meta, trace_rng,
                duration_ms=cfg.trace_duration_ms,
                fluid_config=fluid,
                regime_index=regimes[snapshot],
                rate_multiplier=rate_mult)
            summaries.append(summarize_trace(trace))
            if cfg.keep_traces:
                kept.append(trace)
    return summaries, regimes, kept


def run_service_campaign(
        cfg: CampaignConfig, service: str,
        fluid_config: Optional[FluidConfig] = None
) -> tuple[list[TraceSummary], list[int], list[HostTrace]]:
    """Generate and summarize one service's slice of a campaign: the
    whole ``hosts_per_service x n_snapshots`` tile (see
    :func:`run_capture_tile`)."""
    return run_capture_tile(cfg, service, range(cfg.hosts_per_service),
                            range(cfg.n_snapshots), fluid_config)


def run_campaign(config: Optional[CampaignConfig] = None,
                 fluid_config: Optional[FluidConfig] = None
                 ) -> FleetCampaign:
    """Generate and summarize a full fleet campaign."""
    cfg = config or CampaignConfig()
    campaign = FleetCampaign(config=cfg)
    for service in cfg.services:
        summaries, regimes, kept = run_service_campaign(
            cfg, service, fluid_config)
        campaign.regimes[service] = regimes
        campaign.summaries[service] = summaries
        if cfg.keep_traces:
            campaign.traces[service] = kept
    return campaign
