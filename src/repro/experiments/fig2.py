"""Figure 2: incast burst characteristics across five services.

CDFs over the daily campaign (20 hosts x 9 snapshots x 2 s per service):
(a) burst frequency per trace — tens to ~200 bursts/second;
(b) burst duration — 1-20 ms, ~60% at 1-2 ms;
(c) active flows per burst — the majority are incasts (>= 25 flows), p99
    reaching 200-500, with low-flow "cliffs" for storage and aggregator.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ascii_plot import cdf_plot
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_table, render_cdf_table
from repro.core.incast import INCAST_FLOW_THRESHOLD
from repro.experiments.engine import fleet
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.result import ExperimentResult
from repro.measurement.collection import daily_campaign_config

PERCENTILES = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0]


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """The daily campaign's tiles per service: the sampling campaign's
    tile plus what the daily box adds to it."""
    return fleet.campaign_units(
        "fig2", daily_campaign_config(scale, seed), scale, seed)


def merge(units: list[WorkUnit], payloads: list[dict], *, scale: float,
          seed: int) -> ExperimentResult:
    """Reassemble the campaign from its tiles and analyze."""
    campaign = fleet.assemble_campaign(
        daily_campaign_config(scale, seed), units, payloads)
    freq_cdfs, dur_cdfs, flow_cdfs = {}, {}, {}
    per_service_rows = []
    for service in campaign.summaries:
        freq_cdfs[service] = EmpiricalCdf(
            campaign.burst_frequencies(service), service)
        durations = campaign.pooled(service, "durations_ms")
        flows = campaign.pooled(service, "flow_counts")
        dur_cdfs[service] = EmpiricalCdf(durations, service)
        flow_cdfs[service] = EmpiricalCdf(flows, service)
        per_service_rows.append([
            service,
            float(np.mean(durations <= 2.0)) if durations.size else 0.0,
            float(np.mean(flows >= INCAST_FLOW_THRESHOLD))
            if flows.size else 0.0,
            float(np.mean(flows < 20)) if flows.size else 0.0,
        ])

    result = ExperimentResult(
        name="fig2",
        description="Incast burst characteristics across five services",
        data={
            "frequency_cdfs": freq_cdfs,
            "duration_cdfs": dur_cdfs,
            "flow_cdfs": flow_cdfs,
            "campaign": campaign,
        },
    )
    result.add_section(render_cdf_table(
        freq_cdfs, PERCENTILES, "bursts/second",
        title="Figure 2a: burst frequency (bursts/s; paper: tens to 200)"))
    result.add_section(render_cdf_table(
        dur_cdfs, PERCENTILES, "duration (ms)",
        title="Figure 2b: burst duration (ms; paper: 1-20 ms)"))
    result.add_section(render_cdf_table(
        flow_cdfs, PERCENTILES, "active flows",
        title="Figure 2c: active flows per burst "
              "(paper: incasts up to 200-500 at p99)"))
    result.add_section(cdf_plot(
        {name: cdf.curve() for name, cdf in flow_cdfs.items()},
        title="Figure 2c (shape): CDF of active flows per burst",
        x_label="flows"))
    result.add_section(format_table(
        ["service", "bursts <=2ms", "incast fraction (>=25 flows)",
         "low-mode fraction (<20 flows)"],
        per_service_rows,
        title="Figure 2: headline fractions (paper: ~60% of bursts are "
              "1-2 ms; majority are incasts; storage/aggregator show a "
              "10-45% low-flow cliff)"))
    return result
