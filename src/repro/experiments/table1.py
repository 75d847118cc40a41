"""Table 1: the five example services.

The paper's Table 1 lists each service's name and description; this runner
additionally reports the measured burst character of the synthetic stand-in
fleet (burst rate, median/p99 incast degree), so the substitution's
calibration is visible next to the inventory.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.engine import fleet
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.result import ExperimentResult
from repro.measurement.collection import (FleetCampaign, run_campaign,
                                          sampling_campaign_config)
from repro.workloads.services import SERVICE_PROFILES


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """The sampling campaign's tiles: one per service at every scale,
    since its box is the smallest of the nested campaign shapes."""
    return fleet.campaign_units(
        "table1", sampling_campaign_config(scale, seed), scale, seed)


def merge(units: list[WorkUnit], payloads: list[dict], *, scale: float,
          seed: int) -> ExperimentResult:
    """Reassemble the campaign from its tiles and tabulate."""
    campaign = fleet.assemble_campaign(
        sampling_campaign_config(scale, seed), units, payloads)
    return run(scale=scale, seed=seed, campaign=campaign)


def run(scale: float = 1.0, seed: int = 0,
        campaign: FleetCampaign | None = None) -> ExperimentResult:
    """Reproduce Table 1 (plus measured fleet summary columns).

    ``scale`` shrinks the sampling campaign used for the measured columns;
    the service inventory itself is scale-independent.
    """
    if campaign is None:
        campaign = run_campaign(sampling_campaign_config(scale, seed))

    rows = []
    for name, profile in SERVICE_PROFILES.items():
        flows = campaign.pooled(name, "flow_counts")
        freqs = campaign.burst_frequencies(name)
        rows.append([
            name,
            profile.description,
            float(np.median(freqs)) if freqs.size else 0.0,
            float(np.median(flows)) if flows.size else 0.0,
            float(np.percentile(flows, 99)) if flows.size else 0.0,
        ])

    result = ExperimentResult(
        name="table1",
        description="Five example services (paper Table 1, plus measured "
                    "burst character of the synthetic fleet)",
        data={"rows": rows},
    )
    result.add_section(format_table(
        ["Service", "Description", "bursts/s (med)", "flows (med)",
         "flows (p99)"],
        rows, title="Table 1: Five example services"))
    return result
