"""Figure 1: example incast bursts measured at one receiver.

Two seconds of one "aggregator" host at 1 ms granularity, four panels:
(a) ingress throughput — sharp line-rate bursts a few ms long, ~10% average
    utilization;
(b) active flow count — jumping to >= 200 during bursts (incasts);
(c) ECN-marked ingress — all-or-nothing: marked bursts are marked almost
    entirely;
(d) retransmitted ingress — rare but reaching tens of percent of line rate.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.core.bursts import burst_frequency_hz, detect_bursts
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.result import ExperimentResult
from repro.measurement.records import TraceMeta
from repro.netsim.fluid import production_fluid_config
from repro.simcore.random import RngHub
from repro.workloads.services import SERVICE_PROFILES, generate_host_trace

SERVICE = "aggregator"


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """One unit: the single synthetic capture behind every panel."""
    return [WorkUnit(experiment="fig1", unit_id="trace",
                     fn="repro.experiments.fig1:run_unit",
                     params={}, scale=scale, seed=seed)]


def run_unit(unit: WorkUnit) -> ExperimentResult:
    """Execute the capture+analysis unit (the whole figure)."""
    return run(scale=unit.scale, seed=unit.seed)


def merge(units: list[WorkUnit], payloads: list[ExperimentResult], *,
          scale: float, seed: int) -> ExperimentResult:
    """Single-unit experiment: the payload *is* the result."""
    return payloads[0]


def run(scale: float = 1.0, seed: int = 17) -> ExperimentResult:
    """Reproduce Figure 1 (a-d) from one synthetic aggregator capture."""
    duration_ms = max(200, int(round(2000 * scale)))
    rng = RngHub(seed).fresh("fig1")
    trace = generate_host_trace(
        SERVICE_PROFILES[SERVICE],
        TraceMeta(service=SERVICE, host_id=0), rng,
        duration_ms=duration_ms,
        fluid_config=production_fluid_config())
    bursts = detect_bursts(trace)

    ingress = trace.ingress_rate_gbps()
    marked = trace.marked_rate_gbps()
    retx = trace.retransmit_rate_gbps()
    flows = trace.active_flows
    line_gbps = trace.line_rate_bps / 1e9

    in_burst = np.zeros(len(trace), dtype=bool)
    for burst in bursts:
        in_burst[burst.start:burst.end] = True
    burst_traffic_share = (float(trace.ingress_bytes[in_burst].sum()
                                 / max(trace.ingress_bytes.sum(), 1)))

    result = ExperimentResult(
        name="fig1",
        description="Example incast bursts at one aggregator receiver "
                    "(2 s @ 1 ms)",
        data={
            "trace": trace,
            "bursts": bursts,
            "mean_utilization": trace.mean_utilization(),
            "burst_traffic_share": burst_traffic_share,
            "burst_frequency_hz": burst_frequency_hz(trace, bursts),
        },
    )

    rows = [
        ["(a) ingress Gbps", float(ingress.max()), float(ingress.mean()),
         line_gbps],
        ["(b) active flows", int(flows.max()),
         float(flows[in_burst].mean()) if in_burst.any() else 0.0, "-"],
        ["(c) ECN-marked Gbps", float(marked.max()), float(marked.mean()),
         line_gbps],
        ["(d) retransmit Gbps", float(retx.max()), float(retx.mean()),
         line_gbps],
    ]
    result.add_section(format_table(
        ["panel", "max", "mean", "line rate"], rows,
        title="Figure 1: per-1ms panels over the capture"))

    marking_bursts = [b for b in bursts if b.marked_fraction > 0]
    # Figure 1c's reading: when traffic is marked, the marking rate
    # roughly equals the line rate. Weight by bytes so short threshold-
    # crossing intervals at burst edges don't dominate the statistic.
    marked_ivals = trace.marked_bytes > 0
    if marked_ivals.any():
        heavy = (trace.marked_bytes[marked_ivals]
                 >= 0.8 * trace.ingress_bytes[marked_ivals])
        near_full_ivals = float(
            trace.marked_bytes[marked_ivals][heavy].sum()
            / max(trace.marked_bytes.sum(), 1))
        peak_mark_frac = float(
            (trace.marked_rate_gbps().max()) / (trace.line_rate_bps / 1e9))
    else:
        near_full_ivals = 0.0
        peak_mark_frac = 0.0
    result.add_section(format_table(
        ["quantity", "value"],
        [
            ["capture duration (ms)", duration_ms],
            ["bursts detected", len(bursts)],
            ["bursts/second", round(burst_frequency_hz(trace, bursts), 1)],
            ["average link utilization",
             f"{trace.mean_utilization():.1%} (paper: 10.6%)"],
            ["traffic inside bursts", f"{burst_traffic_share:.1%} "
             "(paper: essentially all)"],
            ["peak active flows", int(flows.max())],
            ["bursts with marking", len(marking_bursts)],
            ["marked bytes in >80%-marked intervals",
             f"{near_full_ivals:.0%} (paper: if traffic is marked, "
             f"essentially all packets are marked)"],
            ["peak marking rate / line rate",
             f"{peak_mark_frac:.0%} (paper: marking rate roughly equals "
             f"line rate)"],
            ["peak retransmit % of line",
             f"{retx.max() / line_gbps:.1%} (paper: up to 24%)"],
        ],
        title="Figure 1: headline observations"))
    return result
