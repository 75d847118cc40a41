"""Figure 7: per-flow in-flight data during a 100-flow incast is skewed.

Samples every flow's in-flight bytes at 100 us granularity through a
Mode 1 incast and reports the percentile bands across *active* flows
(median, average, p95, p100). The paper's reading: a long tail of flows
holds several times the average in flight; at the end of the burst the
average rises as stragglers ramp up to claim freed bandwidth — window
state they then carry into the next burst, spiking the queue at its start.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.analysis.tables import format_table
from repro.core.divergence import analyze_divergence
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.environment import (run_incast_sim,
                                           scaled_incast_config)
from repro.experiments.result import ExperimentResult

N_FLOWS = 100


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """A single unit: one simulation feeds the whole figure."""
    return [WorkUnit(experiment="fig7", unit_id="trace",
                     fn="repro.experiments.fig7:run_unit",
                     params={}, scale=scale, seed=seed)]


def run_unit(unit: WorkUnit) -> ExperimentResult:
    """Reproduce Figure 7 (100-flow Mode 1 incast, per-flow in-flight):
    the full figure in one unit, analysis included, since the per-flow
    sampler arrays dominate the payload otherwise."""
    sim_result = run_incast_sim(scaled_incast_config(
        {"n_flows": N_FLOWS, "seed": unit.seed, "sample_flows": True,
         "max_sim_time_ns": units.sec(60.0)}, unit.scale))
    sampler = sim_result.flow_sampler
    assert sampler is not None

    # Analyze a steady burst (the paper discards the slow-start burst).
    target = sim_result.steady_results[len(sim_result.steady_results) // 2]
    times = np.asarray(sampler.times_ns)
    mask = (times >= target.start_ns) & (times <= target.complete_ns)
    inflight = np.stack([s for s, m in zip(sampler.inflight, mask) if m])
    active = np.stack([a for a, m in zip(sampler.active, mask) if m])
    # The completion tail of a 15 ms burst is short relative to the
    # burst, so the ramp window is the final ~6% of the active span.
    report = analyze_divergence(times[mask], inflight, active,
                                tail_fraction=0.06)

    result = ExperimentResult(
        name="fig7",
        description="Per-flow in-flight data during a 100-flow incast "
                    "(median/average/p95/p100 across active flows)",
        data={"sim": sim_result, "report": report},
    )

    # Render the bands at ~0.5 ms cadence over the burst.
    rel_ms = (report.times_ns - target.start_ns) / units.NS_PER_MS
    step = max(1, len(rel_ms) // 30)
    rows = [[round(float(rel_ms[i]), 2),
             round(float(report.median_inflight[i])),
             round(float(report.mean_inflight[i])),
             round(float(report.p95_inflight[i])),
             round(float(report.p100_inflight[i])),
             int(report.active_flows[i])]
            for i in range(0, len(rel_ms), step)]
    result.add_section(format_table(
        ["t (ms)", "median B", "mean B", "p95 B", "p100 B", "active flows"],
        rows, title="Figure 7: in-flight bytes across active flows vs time "
                    "since burst start"))

    result.add_section(format_table(
        ["quantity", "value"],
        [
            ["tail skew (max p100/mean)", round(report.tail_skew, 2)],
            ["end-of-burst ramp ratio", round(report.end_ramp_ratio, 2)],
            ["min Jain's index", round(report.min_jains_index, 3)],
            ["stragglers detected", report.has_stragglers],
            ["burst-start queue spike (pkts)",
             round(float(np.nanmax(
                 sim_result.aligned_queue_packets[:max(1, len(
                     sim_result.aligned_queue_packets) // 10)])), 0)],
            ["steady-state queue (pkts, mid-burst)",
             round(float(np.nanmean(
                 sim_result.aligned_queue_packets[
                     len(sim_result.aligned_queue_packets) // 4:
                     len(sim_result.aligned_queue_packets) // 2])), 0)],
        ],
        title="Figure 7: divergence signatures (paper: p95/p100 several "
              "times the average; stragglers ramp at burst end and spike "
              "the next burst's queue)"))
    return result


def merge(work: list[WorkUnit], payloads: list[ExperimentResult], *,
          scale: float, seed: int) -> ExperimentResult:
    """The single unit's payload is already the finished figure."""
    return payloads[0]
