"""Figure 3: incast degree distributions are stable.

(a) Per-snapshot mean flow count over the 18-hour campaign (2 s every
    10 minutes): each service oscillates around its own steady operating
    point; "video" alternates between ~225 and ~275 flows.
(b) Across the 20 sampled "aggregator" hosts, per-host mean and p99 flow
    counts are similar (stable across hosts, not just over time).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.analysis.tables import format_table
from repro.core.stability import (cross_host_stability, regime_separation,
                                  temporal_stability)
from repro.experiments.engine import fleet
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.result import ExperimentResult
from repro.measurement.collection import (FleetCampaign, run_campaign,
                                          stability_campaign_config)

HOST_DETAIL_SERVICE = "aggregator"


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """The stability campaign's tiles per service: the daily campaign's
    tiles plus what the stability box adds to them."""
    return fleet.campaign_units(
        "fig3", stability_campaign_config(scale, seed), scale, seed)


def merge(units: list[WorkUnit], payloads: list[dict], *, scale: float,
          seed: int) -> ExperimentResult:
    """Reassemble the campaign from its tiles and analyze."""
    campaign = fleet.assemble_campaign(
        stability_campaign_config(scale, seed), units, payloads)
    return run(scale=scale, seed=seed, campaign=campaign)


def run(scale: float = 1.0, seed: int = 0,
        campaign: FleetCampaign | None = None) -> ExperimentResult:
    """Reproduce Figure 3 (a-b) from the 18-hour stability campaign."""
    if campaign is None:
        campaign = run_campaign(stability_campaign_config(scale, seed))

    result = ExperimentResult(
        name="fig3",
        description="Within a service, burst flow-count distributions are "
                    "stable over time and across hosts",
        data={"campaign": campaign},
    )

    # Panel (a): temporal stability per service.
    rows_a = []
    temporal = {}
    for service, summaries in campaign.summaries.items():
        report = temporal_stability(summaries)
        temporal[service] = report
        rows_a.append([
            service,
            report.mean_of_means,
            float(report.means.min()) if report.means.size else 0.0,
            float(report.means.max()) if report.means.size else 0.0,
            report.cov_of_means,
            regime_separation(report.means),
        ])
    result.data["temporal"] = temporal
    result.add_section(format_table(
        ["service", "mean flows", "min snapshot", "max snapshot",
         "CoV of means", "regime separation"],
        rows_a,
        title="Figure 3a: per-snapshot mean flow count over the campaign "
              "(paper: stable operating points; video alternates ~225/275)"))

    # Panel (b): cross-host stability for the aggregator service.
    summaries = campaign.summaries[HOST_DETAIL_SERVICE]
    report = cross_host_stability(summaries)
    result.data["cross_host"] = report
    rows_b = [[f"host{h}", m, p]
              for h, m, p in zip(report.group_keys, report.means,
                                 report.p99s)]
    result.add_section(format_table(
        ["host", "mean flows", "p99 flows"], rows_b,
        title=f"Figure 3b: per-host mean and p99 flow count "
              f"({HOST_DETAIL_SERVICE}; paper: similar across hosts)"))
    result.add_section(format_table(
        ["quantity", "value"],
        [
            ["cross-host CoV of means", report.cov_of_means],
            ["cross-host CoV of p99s", report.cov_of_p99s],
            ["stable (CoV <= 0.25)", report.is_stable()],
        ],
        title="Figure 3b: stability summary"))

    # Video regime recovery: group snapshot means by generated regime.
    video = campaign.summaries.get("video")
    if video:
        regimes = campaign.regimes["video"]
        by_snapshot: dict[int, list[float]] = defaultdict(list)
        for summary in video:
            by_snapshot[summary.snapshot_index].append(
                summary.mean_flow_count())
        means_by_regime: dict[int, list[float]] = defaultdict(list)
        for snapshot_index, means in by_snapshot.items():
            means_by_regime[regimes[snapshot_index]].append(
                float(np.mean(means)))
        rows_v = [[f"regime {r}", float(np.mean(v)), len(v)]
                  for r, v in sorted(means_by_regime.items())]
        result.data["video_regimes"] = means_by_regime
        result.add_section(format_table(
            ["regime", "mean flows", "snapshots"], rows_v,
            title="Video operating modes (paper: ~225 vs ~275 flows)"))
    return result
