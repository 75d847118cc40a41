"""Substrate cross-validation: fluid model vs packet simulation.

DESIGN.md substitutes a fluid ToR model for packet-level simulation when
generating the Section 3 fleet. This experiment defends that substitution
where it matters — at the regime boundaries: it sweeps the incast degree
and runs the *same* cyclic burst workload on both substrates with matched
bottleneck parameters —

- packet side: the Figure 5 protocol (persistent DCTCP connections, the
  first slow-start burst discarded, steady bursts measured);
- fluid side: one burst of the :mod:`repro.netsim.fluid` kernel per
  degree with a steady-state carryover window.

and compares the steady ECN-marked fraction and peak queue occupancy as
functions of flow count. The claim is *agreement in shape*: both
substrates mark nothing below the degenerate region, saturate marking
above it, and grow queue peaks together (rank correlation), not that they
agree to the percent.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.analysis.tables import format_table
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.result import ExperimentResult
from repro.netsim.fluid import (FluidColumns, FluidConfig, FluidConstants,
                                burst_start, run_burst)
from repro.netsim.packet import TCP_IP_HEADER_BYTES


FLOW_SWEEP = [25, 50, 100, 150, 250, 400]


def sweep_params(scale: float) -> tuple[int, int]:
    """``(burst_ns, n_bursts)`` of the sweep at a given scale."""
    burst_ns = max(units.msec(2.0), int(units.msec(5.0) * scale))
    n_bursts = max(4, int(round(8 * scale)))
    return burst_ns, n_bursts


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """One packet-side unit per incast degree plus one (cheap) fluid-side
    unit covering the whole sweep."""
    work = [
        WorkUnit(experiment="crossval", unit_id=f"packet:{flows}",
                 fn="repro.experiments.crossval:run_unit",
                 params={"side": "packet", "flows": flows},
                 scale=scale, seed=seed)
        for flows in FLOW_SWEEP
    ]
    work.append(WorkUnit(experiment="crossval", unit_id="fluid",
                         fn="repro.experiments.crossval:run_unit",
                         params={"side": "fluid"}, scale=scale, seed=seed))
    return work


def run_unit(unit: WorkUnit):
    """Run one degree of the packet sweep, or the whole fluid sweep."""
    burst_ns, n_bursts = sweep_params(unit.scale)
    if unit.params["side"] == "fluid":
        return run_fluid_side(FLOW_SWEEP, burst_ns)
    return run_packet_side([unit.params["flows"]], burst_ns, n_bursts,
                           unit.seed)[0]


def merge(work: list[WorkUnit], payloads: list, *, scale: float,
          seed: int) -> ExperimentResult:
    """Reassemble the sweep in FLOW_SWEEP order and compare substrates."""
    packet = [payload for unit, payload in zip(work, payloads)
              if unit.params["side"] == "packet"]
    fluid = next(payload for unit, payload in zip(work, payloads)
                 if unit.params["side"] == "fluid")
    return _report(packet, fluid)


def run_packet_side(flow_sweep: list[int], burst_ns: int, n_bursts: int,
                    seed: int) -> list[tuple[float, float]]:
    """Steady-state ``(marked_fraction, peak_queue_frac)`` per degree,
    using the Figure 5 protocol."""
    from repro.experiments.environment import (IncastSimConfig,
                                               run_incast_sim)
    results = []
    for flows in flow_sweep:
        sim_result = run_incast_sim(IncastSimConfig(
            n_flows=flows, burst_duration_ns=burst_ns, n_bursts=n_bursts,
            seed=seed, max_sim_time_ns=units.sec(120.0)))
        enqueued = sum(r.demand_bytes_per_flow * r.n_flows // 1460
                       for r in sim_result.steady_results)
        marked = sim_result.steady_marked_packets
        peak = max(r.peak_queue_packets
                   for r in sim_result.steady_results)
        results.append((min(marked / max(enqueued, 1), 1.0),
                        peak / 1333.0))
    return results


def run_fluid_side(flow_sweep: list[int],
                   burst_ns: int) -> list[tuple[float, float]]:
    """Steady-state ``(marked_fraction, peak_queue_frac)`` per degree on
    the fluid bottleneck with matched parameters."""
    wire = 1460 + TCP_IP_HEADER_BYTES
    fluid_cfg = FluidConfig(
        line_rate_bps=units.gbps(10.0),
        base_rtt_ns=units.usec(30.0),
        capacity_bytes=1333 * wire,
        ecn_threshold_frac=65.0 / 1333.0,
        mss_bytes=wire,
    )
    constants = FluidConstants.of(fluid_cfg)
    volume = units.bytes_in_interval(units.gbps(10.0), burst_ns)
    results = []
    for flows in flow_sweep:
        trace = FluidColumns([], [], [], [], [])
        capacity, window, alpha = burst_start(
            fluid_cfg, flows, volume, fluid_cfg.capacity_bytes,
            window_start_factor=1.5)
        run_burst(constants, flows, volume, capacity, window, alpha,
                  float("inf"), trace)
        # numpy's pairwise sums: the published fractions are pinned.
        delivered = int(np.asarray(trace.delivered_bytes).sum())
        marked_frac = (float(np.asarray(trace.marked_bytes).sum())
                       / delivered if delivered else 0.0)
        results.append((min(marked_frac, 1.0),
                        max(trace.queue_frac, default=0.0)))
    return results


def rank_correlation(a: list[float], b: list[float]) -> float:
    """Spearman rank correlation (ties broken by position)."""
    x = np.asarray(a)
    y = np.asarray(b)
    if x.size < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    rx = np.argsort(np.argsort(x)).astype(np.float64)
    ry = np.argsort(np.argsort(y)).astype(np.float64)
    return float(np.corrcoef(rx, ry)[0, 1])


def _report(packet: list[tuple[float, float]],
            fluid: list[tuple[float, float]]) -> ExperimentResult:
    rows = []
    for flows, (p_mark, p_queue), (f_mark, f_queue) in zip(
            FLOW_SWEEP, packet, fluid):
        rows.append([flows, round(p_mark, 2), round(f_mark, 2),
                     round(p_queue, 3), round(f_queue, 3)])
    mark_corr = rank_correlation([p for p, _ in packet],
                                 [f for f, _ in fluid])
    queue_corr = rank_correlation([q for _, q in packet],
                                  [q for _, q in fluid])

    result = ExperimentResult(
        name="crossval",
        description="Fluid vs packet substrate agreement across incast "
                    "degrees",
        data={"flow_sweep": FLOW_SWEEP, "packet": packet, "fluid": fluid,
              "mark_rank_correlation": mark_corr,
              "queue_rank_correlation": queue_corr},
    )
    result.add_section(format_table(
        ["flows", "marked frac (packet)", "marked frac (fluid)",
         "peak queue frac (packet)", "peak queue frac (fluid)"],
        rows, title="Cross-validation: steady-state outcomes per degree"))
    result.add_section(format_table(
        ["quantity", "rank correlation"],
        [["ECN-marked fraction", round(mark_corr, 3)],
         ["peak queue occupancy", round(queue_corr, 3)]],
        title="Substrate agreement (1.0 = identical ordering)"))
    return result
