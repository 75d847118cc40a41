"""Figure 6: queue behaviour during 2 ms incast bursts (the common case).

60% of production bursts last 1-2 ms. At that duration there is no time
for the oscillatory steady state of Figure 5: the queue trace is dominated
by the initial window-dump spike, and a larger share of the burst elapses
with deep queues — short bursts are *harder* for DCTCP than long ones.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.analysis.ascii_plot import line_plot
from repro.analysis.tables import format_figure_series, format_table
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.environment import IncastSimResult
from repro.experiments.fig5 import series_rows
from repro.experiments.result import ExperimentResult
from repro.experiments.sweep import point_unit

FLOW_COUNTS = [50, 100, 200, 500]


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """One ``dumbbell_incast`` point of 2 ms bursts per incast degree:
    the verdict grid's ``dctcp/flows:N/burst:2ms`` point, so a joint run
    simulates a shared degree once."""
    return [
        point_unit("fig6", f"flows:{n_flows}", "dumbbell_incast",
                   {"n_flows": n_flows, "burst_duration_ns": units.msec(2.0),
                    "max_sim_time_ns": units.sec(60.0)}, scale, seed)
        for n_flows in FLOW_COUNTS
    ]


def merge(work: list[WorkUnit], payloads: list[IncastSimResult], *,
          scale: float, seed: int) -> ExperimentResult:
    """Assemble the per-degree traces into the figure."""
    result = ExperimentResult(
        name="fig6",
        description="Queue behaviour during 2 ms incast bursts",
    )
    rows = []
    for sim_result in payloads:
        n_flows = sim_result.config.n_flows
        result.data[f"flows_{n_flows}"] = sim_result
        finite = sim_result.aligned_queue_packets[
            np.isfinite(sim_result.aligned_queue_packets)]
        threshold = sim_result.config.dumbbell.ecn_threshold_packets or 0
        above = float((finite > threshold).mean()) if finite.size else 0.0
        rows.append([
            n_flows,
            round(sim_result.mean_bct_ms, 2),
            round(float(finite.max()), 0) if finite.size else 0,
            round(above, 2),
            sim_result.steady_drops,
            sim_result.mode.name,
        ])
        offsets_ms = sim_result.aligned_offsets_ns / units.NS_PER_MS
        result.add_section(line_plot(
            offsets_ms, sim_result.aligned_queue_packets,
            title=f"Figure 6 ({n_flows} flows): queue length vs time "
                  f"since burst start (2 ms bursts)",
            x_label="t (ms)", y_label="queue (packets)"))
        xs, ys = series_rows(sim_result, step_ms=0.25)
        result.add_section(format_figure_series(
            f"Figure 6 ({n_flows} flows): series data",
            "t (ms)", "queue (packets)", xs, ys))

    result.add_section(format_table(
        ["flows", "BCT (ms)", "peak queue", "fraction above ECN thresh",
         "drops", "mode"],
        rows,
        title="Figure 6 summary (paper: short bursts are dominated by the "
              "initial spike; deep queues for most of the burst)"))
    return result
