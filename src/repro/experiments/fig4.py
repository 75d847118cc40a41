"""Figure 4: negative effects of incast bursts on the network.

CDFs over the daily campaign:
(a) peak queue occupancy per burst, as the switch high-watermark counters
    report it — median 20-100% of capacity;
(b) ECN-marked fraction per burst — ~50% of bursts see no marking at all;
    aggregator and video exceed 60% marking at p90;
(c) retransmitted volume as a fraction of line rate — only ~5% of bursts
    retransmit, but the top 0.1% reach several percent of line rate.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ascii_plot import cdf_plot
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_table, render_cdf_table
from repro.experiments.engine import fleet
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.fig2 import campaign_for_scale
from repro.experiments.result import ExperimentResult
from repro.measurement.collection import FleetCampaign, daily_campaign_config

QUEUE_PERCENTILES = [10.0, 25.0, 50.0, 75.0, 90.0]
MARK_PERCENTILES = [50.0, 75.0, 90.0, 95.0, 99.0]
RETX_PERCENTILES = [95.0, 99.0, 99.9, 100.0]


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """The daily campaign's tiles per service.

    They are fig2's units exactly, and their first tile per service is
    table1's (fig3's tiles extend the same cut), so when these figures run
    in one engine invocation each capture is generated once and shared.
    """
    return fleet.campaign_units(
        "fig4", daily_campaign_config(scale, seed), scale, seed)


def merge(units: list[WorkUnit], payloads: list[dict], *, scale: float,
          seed: int) -> ExperimentResult:
    """Reassemble the campaign from its tiles and analyze."""
    campaign = fleet.assemble_campaign(
        daily_campaign_config(scale, seed), units, payloads)
    return run(scale=scale, seed=seed, campaign=campaign)


def run(scale: float = 1.0, seed: int = 0,
        campaign: FleetCampaign | None = None) -> ExperimentResult:
    """Reproduce Figure 4 (a-c)."""
    if campaign is None:
        campaign = campaign_for_scale(scale, seed)

    queue_cdfs, mark_cdfs, retx_cdfs = {}, {}, {}
    rows = []
    for service in campaign.summaries:
        watermark = campaign.pooled(service, "watermark_fracs")
        marks = campaign.pooled(service, "marked_fractions")
        retx = campaign.pooled(service, "retransmit_fractions")
        queue_cdfs[service] = EmpiricalCdf(watermark, service)
        mark_cdfs[service] = EmpiricalCdf(marks, service)
        retx_cdfs[service] = EmpiricalCdf(retx, service)
        rows.append([
            service,
            float(np.median(watermark)) if watermark.size else 0.0,
            float(np.mean(marks == 0.0)) if marks.size else 0.0,
            float(np.percentile(marks, 90)) if marks.size else 0.0,
            float(np.mean(retx > 0.0)) if retx.size else 0.0,
            float(np.percentile(retx, 99.9)) if retx.size else 0.0,
        ])

    result = ExperimentResult(
        name="fig4",
        description="Negative effects of incast bursts on the network",
        data={
            "queue_cdfs": queue_cdfs,
            "mark_cdfs": mark_cdfs,
            "retx_cdfs": retx_cdfs,
            "campaign": campaign,
        },
    )
    result.add_section(render_cdf_table(
        queue_cdfs, QUEUE_PERCENTILES, "peak queue fraction",
        title="Figure 4a: peak queue occupancy per burst, high-watermark "
              "semantics (paper: median 20-100% of capacity)"))
    result.add_section(render_cdf_table(
        mark_cdfs, MARK_PERCENTILES, "ECN-marked fraction",
        title="Figure 4b: ECN-marked fraction per burst (paper: ~50% of "
              "bursts unmarked; aggregator/video >60% at p90)"))
    result.add_section(cdf_plot(
        {name: cdf.curve() for name, cdf in mark_cdfs.items()},
        title="Figure 4b (shape): CDF of per-burst marked fraction",
        x_label="marked fraction"))
    result.add_section(render_cdf_table(
        retx_cdfs, RETX_PERCENTILES, "retransmit fraction of line rate",
        title="Figure 4c: retransmitted volume per burst (paper: ~5% of "
              "bursts retransmit; top 0.1% reach ~8%)"))
    result.add_section(format_table(
        ["service", "median watermark", "unmarked bursts", "mark p90",
         "bursts w/ retx", "retx p99.9"],
        rows, title="Figure 4: headline values"))
    return result
