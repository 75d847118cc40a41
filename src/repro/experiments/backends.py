"""Simulation substrates behind the ``backend`` config axis.

Every experiment and sweep config carries a ``backend`` field drawn from
:data:`~repro.experiments.backend_names.BACKENDS`:

- ``packet`` — the discrete-event packet core, unchanged. The default;
  every golden fixture is pinned against it.
- ``fluid`` — the whole run approximated on the :mod:`repro.netsim.fluid`
  bottleneck model with matched parameters. Flows are grouped into
  *waves* (start times quantized to the fluid interval); each wave runs
  as one aggregate fluid burst and per-flow completions come from
  interval-granular processor sharing of the wave's delivered bytes,
  written straight into the :class:`~repro.analysis.fct.FctSet` columns
  (:func:`_fluid_wave`, shared with ``hybrid``'s steady window). Waves do
  not interact — exactly the fidelity loss ``hybrid`` repairs and
  ``crossval`` quantifies.
- ``hybrid`` — fluid for the *steady-state windows*, the packet core for
  the *burst windows*. For the leaf-spine mix scenario the steady-state
  window is the elephant warmup (long flows at DCTCP steady state,
  which the fluid model captures); the mice incast is the burst window
  and runs on packets against the fluid-predicted standing queue
  (folded in as reduced queue headroom). For the cyclic dumbbell
  incast, the slow-start transient (and the first steady burst) is the
  packet window; the remaining bursts repeat a steady cycle the fluid
  model carries forward.

Because ``backend`` is an ordinary config field, the sweep DSL can put
the substrate on a grid axis and the engine cache keys it like any other
parameter: ``hybrid`` units can never collide with ``packet`` units
(``tests/test_backend_axis.py`` pins this as a Hypothesis property), and
a mid-sweep resume re-dispatches each unit to its recorded substrate.
:mod:`repro.experiments.crossval` cross-validates the substrates on the
Figure 5 protocol (:func:`repro.experiments.crossval.hybrid_agreement`).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from repro import units
from repro.analysis.fct import ELEPHANT, MOUSE, FctSet, merge_fct_sets
from repro.netsim.fluid import (FluidColumns, FluidConfig, FluidConstants,
                                burst_start, run_burst)
from repro.netsim.leafspine import LeafSpineConfig
from repro.netsim.packet import TCP_IP_HEADER_BYTES
from repro.workloads.mix import KIND_MOUSE, FlowSpec

#: Aggregate-window carryover applied to steady (non-first) fluid bursts,
#: modelling CWND state carried over from the previous burst — the same
#: choice ``crossval``'s fluid side uses (Section 4.3 straggler ramp-up).
STEADY_WINDOW_START_FACTOR = 1.5

#: How many leading bursts of a cyclic incast the hybrid backend runs on
#: the packet core: the slow-start transient the paper discards plus one
#: measured steady burst; the rest repeat a steady cycle fluid carries.
HYBRID_PACKET_BURSTS = 2


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------

def _wire_bytes(size_bytes: int, mss_bytes: int) -> int:
    """Application bytes -> on-the-wire bytes (per-MSS TCP/IP headers)."""
    segments = max(1, math.ceil(size_bytes / mss_bytes))
    return size_bytes + segments * TCP_IP_HEADER_BYTES


def _tcp_mss_bytes() -> int:
    from repro.tcp.config import TcpConfig
    return TcpConfig().mss_bytes


def _min_fct_ns(wire_bytes: int, cfg: FluidConfig) -> int:
    """Physical lower bound on a flow's FCT: one base RTT plus its own
    serialization time at the line rate."""
    serial = wire_bytes * units.BITS_PER_BYTE * units.NS_PER_S \
        / cfg.line_rate_bps
    return cfg.base_rtt_ns + int(serial)


def _processor_sharing(specs: list[FlowSpec], wires: list[int],
                       delivered_bytes: list[float],
                       interval_ns: int) -> list[Optional[int]]:
    """Per-flow completion times from a wave's aggregate fluid deliveries.

    Equal-share processor sharing at interval granularity: every active
    flow receives an equal slice of the interval's delivered bytes, a
    flow finishing mid-interval frees its slice for redistribution, and
    completion instants interpolate linearly within the interval — the
    flows finishing in one round in order of what they had left, so a
    smaller flow is never credited after a larger one that entered with
    it. Returns each spec's close instant, ``None`` where the flow did
    not finish within the trace (unfinished, horizon-truncated).
    """
    ref_ns = min(s.start_ns for s in specs)
    remaining = [float(wire) for wire in wires]
    entry = [max(0, (s.start_ns - ref_ns) // interval_ns) for s in specs]
    close: list[Optional[int]] = [None] * len(specs)
    for i, total in enumerate(delivered_bytes):
        budget = total
        active = [k for k, first in enumerate(entry)
                  if first <= i and close[k] is None]
        while budget > 1e-9 and active:
            share = budget / len(active)
            limit = share + 1e-9
            finishing = [k for k in active if remaining[k] <= limit]
            if not finishing:
                for k in active:
                    remaining[k] -= share
                break
            finishing.sort(key=remaining.__getitem__)
            for k in finishing:
                budget -= remaining[k]
                remaining[k] = 0.0
                frac = (total - budget) / total if total > 0 else 1.0
                close[k] = ref_ns + int((i + min(frac, 1.0)) * interval_ns)
            active = [k for k in active if close[k] is None]
    return close


def _wave_groups(flows: list[FlowSpec],
                 interval_ns: int) -> list[list[FlowSpec]]:
    """Group flows into fluid waves by start time quantized to the fluid
    interval (synchronized-burst members land in one wave)."""
    groups: dict[int, list[FlowSpec]] = {}
    for spec in sorted(flows, key=lambda f: (f.start_ns, f.flow_id)):
        groups.setdefault(spec.start_ns // interval_ns, []).append(spec)
    return [groups[key] for key in sorted(groups)]


def _fluid_wave(specs: list[FlowSpec], fluid_cfg: FluidConfig,
                constants: FluidConstants, mss_bytes: int,
                mouse_max_bytes: int, columns: tuple[list, ...]
                ) -> tuple[int, list[float], float, float, float]:
    """Run one wave of flows as one aggregate fluid burst and append its
    finished flows, in ``specs`` order, to ``columns`` — seven lists in
    :class:`~repro.analysis.fct.FctSet` field order.

    The one wave kernel of the fluid and hybrid leaf-spine backends:
    :func:`~repro.netsim.fluid.burst_start` and
    :func:`~repro.netsim.fluid.run_burst` fill plain per-interval lists,
    and a flow's close is the later of its processor-sharing completion
    and its :func:`_min_fct_ns` floor.

    Returns:
        ``(unfinished, queue_frac, delivered, marked, dropped)``: the
        wave's flows that did not finish, its per-interval queue
        occupancy (fraction of capacity) and its byte totals.
    """
    # A wave holds one or two flow sizes: work out each size's wire bytes
    # and FCT floor once.
    wire_of = {size: _wire_bytes(size, mss_bytes)
               for size in {s.size_bytes for s in specs}}
    floor_of = {size: _min_fct_ns(wire, fluid_cfg)
                for size, wire in wire_of.items()}
    wires = [wire_of[s.size_bytes] for s in specs]
    demand = sum(wires)
    trace = FluidColumns([], [], [], [], [])
    capacity, window, alpha = burst_start(fluid_cfg, len(specs), demand,
                                          fluid_cfg.capacity_bytes)
    run_burst(constants, len(specs), demand, capacity, window, alpha,
              float("inf"), trace)
    done = [(spec, closed) for spec, closed in zip(
        specs, _processor_sharing(specs, wires, trace.delivered_bytes,
                                  fluid_cfg.interval_ns))
        if closed is not None]
    flow_ids, srcs, open_ns, close_ns, sizes, first_bytes, classes = columns
    flow_ids.extend([spec.flow_id for spec, _ in done])
    srcs.extend([spec.src_rank for spec, _ in done])
    open_ns.extend([spec.start_ns for spec, _ in done])
    close_ns.extend([max(closed, spec.start_ns + floor_of[spec.size_bytes])
                     for spec, closed in done])
    sizes.extend([spec.size_bytes for spec, _ in done])
    first_bytes.extend([None] * len(done))
    classes.extend([MOUSE if spec.size_bytes <= mouse_max_bytes else ELEPHANT
                    for spec, _ in done])
    delivered, marked, dropped = np.array(
        (trace.delivered_bytes, trace.marked_bytes, trace.dropped_bytes)
    ).sum(axis=1).tolist()
    return len(specs) - len(done), trace.queue_frac, delivered, marked, \
        dropped


# --------------------------------------------------------------------------
# Leaf-spine scenario backends
# --------------------------------------------------------------------------

def _leafspine_fluid_config(cfg, mss_bytes: int) -> FluidConfig:
    """Fluid bottleneck matched to the scenario's receiver downlink.

    Rates and propagation delays come from the fabric defaults the
    scenario configs pin (:class:`LeafSpineConfig`); queue capacity and
    ECN threshold come from the config's own fields. The base RTT is the
    four-hop cross-rack path (host-leaf-spine-leaf-host), both ways.
    """
    fabric = LeafSpineConfig(n_racks=cfg.n_racks,
                             hosts_per_rack=cfg.hosts_per_rack,
                             n_spines=cfg.n_spines)
    wire = mss_bytes + TCP_IP_HEADER_BYTES
    return FluidConfig(
        line_rate_bps=fabric.host_rate_bps,
        base_rtt_ns=8 * fabric.link_prop_delay_ns,
        capacity_bytes=cfg.queue_capacity_packets * wire,
        ecn_threshold_frac=(cfg.ecn_threshold_packets
                            / cfg.queue_capacity_packets),
        mss_bytes=wire,
        dctcp_g=cfg.dctcp_g)


def run_fluid_plan(name: str, cfg, flows: list[FlowSpec]):
    """Execute one scenario grid point entirely on the fluid substrate."""
    from repro.experiments.scenarios import ScenarioResult, _config_params

    mss = _tcp_mss_bytes()
    fluid_cfg = _leafspine_fluid_config(cfg, mss)
    constants = FluidConstants.of(fluid_cfg)
    wire = fluid_cfg.mss_bytes
    columns: tuple[list, ...] = ([], [], [], [], [], [], [])
    unfinished = 0
    max_len = 0
    marked = dropped = enqueued = 0.0
    # Waves run in start order and emit in spec order, so the columns
    # come out in the canonical (open_ns, flow_id) order as they fill.
    for specs in _wave_groups(flows, fluid_cfg.interval_ns):
        wave_unfinished, queue_frac, wave_delivered, wave_marked, \
            wave_dropped = _fluid_wave(specs, fluid_cfg, constants, mss,
                                       cfg.mouse_max_bytes, columns)
        unfinished += wave_unfinished
        max_len = max(max_len, int(round(max(queue_frac, default=0.0)
                                         * cfg.queue_capacity_packets)))
        marked += wave_marked
        dropped += wave_dropped
        enqueued += wave_delivered + wave_dropped
    return ScenarioResult(
        scenario=name,
        params=_config_params(cfg),
        fcts=FctSet(*map(tuple, columns), unfinished=unfinished,
                    mouse_max_bytes=cfg.mouse_max_bytes),
        bottleneck={
            "max_len_packets": max_len,
            "marked_packets": int(round(marked / wire)),
            "dropped_packets": int(round(dropped / wire)),
            "enqueued_packets": int(round(enqueued / wire)),
        },
        telemetry=None,
    )


def run_hybrid_plan(name: str, cfg, flows: list[FlowSpec],
                    packet_executor: Callable):
    """Fluid for the steady-state window, packets for the burst window.

    The steady-state window is the long-flow (elephant) warmup: those
    flows sit at DCTCP steady state, which the fluid model reproduces,
    and their standing queue at the moment the burst window opens is
    folded into the packet run as reduced queue capacity and ECN
    headroom. The burst window — the synchronized mice incast whose
    transient dynamics are the whole point of per-packet fidelity — runs
    on the packet core. A plan with no steady-state flows (the pure
    cross-rack incast) is all burst window and runs entirely on packets.
    """
    from repro.experiments.scenarios import _config_params

    burst = [f for f in flows if f.kind == KIND_MOUSE]
    steady = [f for f in flows if f.kind != KIND_MOUSE]
    if not steady or not burst:
        # Single-window plans: one substrate covers the whole run.
        result = packet_executor(name, cfg, flows)
        result.params = _config_params(cfg)
        return result

    mss = _tcp_mss_bytes()
    fluid_cfg = _leafspine_fluid_config(cfg, mss)
    wire = fluid_cfg.mss_bytes
    columns: tuple[list, ...] = ([], [], [], [], [], [], [])
    steady_unfinished, queue_frac, delivered, marked, dropped = _fluid_wave(
        steady, fluid_cfg, FluidConstants.of(fluid_cfg), mss,
        cfg.mouse_max_bytes, columns)

    # Standing queue the fluid model predicts at the instant the burst
    # window opens (zero if the steady flows drained first).
    burst_open_ns = min(f.start_ns for f in burst)
    index = burst_open_ns // fluid_cfg.interval_ns
    standing_frac = queue_frac[index] if index < len(queue_frac) else 0.0
    standing = int(round(standing_frac * cfg.queue_capacity_packets))

    # The burst window sees the leftover headroom: capacity and marking
    # threshold both shrink by the standing occupancy.
    eff_threshold = max(1, cfg.ecn_threshold_packets - standing)
    eff_capacity = max(eff_threshold + 1,
                       cfg.queue_capacity_packets - standing)
    packet_cfg = replace(cfg, backend="packet",
                         queue_capacity_packets=eff_capacity,
                         ecn_threshold_packets=eff_threshold)
    result = packet_executor(name, packet_cfg, burst)

    result.params = _config_params(cfg)
    result.fcts = merge_fct_sets([
        result.fcts,
        FctSet(*map(tuple, columns), unfinished=steady_unfinished,
               mouse_max_bytes=cfg.mouse_max_bytes),
    ])
    bottleneck = dict(result.bottleneck)
    bottleneck["max_len_packets"] = (bottleneck["max_len_packets"]
                                     + standing)
    bottleneck["marked_packets"] += int(round(marked / wire))
    bottleneck["dropped_packets"] += int(round(dropped / wire))
    bottleneck["enqueued_packets"] += int(round((delivered + dropped)
                                                / wire))
    result.bottleneck = bottleneck
    return result


# --------------------------------------------------------------------------
# Dumbbell (cyclic incast) backends
# --------------------------------------------------------------------------

def _dumbbell_fluid_config(cfg) -> FluidConfig:
    """Fluid bottleneck matched to the dumbbell's receiver downlink."""
    wire = cfg.tcp.mss_bytes + TCP_IP_HEADER_BYTES
    db = cfg.dumbbell
    cap = db.queue_capacity_packets
    threshold = (db.ecn_threshold_packets
                 if db.ecn_threshold_packets is not None else cap)
    return FluidConfig(
        line_rate_bps=db.host_rate_bps,
        base_rtt_ns=db.base_rtt_ns,
        capacity_bytes=cap * wire,
        ecn_threshold_frac=threshold / cap,
        mss_bytes=wire,
        dctcp_g=cfg.dctcp_g)


def _fluid_cyclic_bursts(cfg, fluid_cfg: FluidConfig, first_index: int,
                         start_ns: int, burst_results: list,
                         times: list[int], values: list[float]) -> None:
    """Append fluid bursts ``first_index .. n_bursts-1`` of the cyclic
    incast, chaining each start one inter-burst gap after the previous
    completion (as the workload schedules them)."""
    from repro.workloads.incast import BurstResult

    constants = FluidConstants.of(fluid_cfg)
    wire = fluid_cfg.mss_bytes
    cap_pk = cfg.dumbbell.queue_capacity_packets
    demand = _wire_bytes(cfg.demand_bytes_per_flow,
                         cfg.tcp.mss_bytes) * cfg.n_flows
    for index in range(first_index, cfg.n_bursts):
        factor = 1.0 if index == 0 else STEADY_WINDOW_START_FACTOR
        trace = FluidColumns([], [], [], [], [])
        capacity, window, alpha = burst_start(
            fluid_cfg, cfg.n_flows, demand, fluid_cfg.capacity_bytes,
            window_start_factor=factor)
        n_intervals = run_burst(constants, cfg.n_flows, demand, capacity,
                                window, alpha, float("inf"), trace)[0]
        for j, frac in enumerate(trace.queue_frac):
            times.append(start_ns + j * fluid_cfg.interval_ns)
            values.append(frac * cap_pk)
        # numpy's pairwise sums: the packet counts are pinned.
        drops, marked, retransmitted = (
            float(np.asarray(column).sum()) for column in (
                trace.dropped_bytes, trace.marked_bytes,
                trace.retransmit_bytes))
        complete = start_ns + n_intervals * fluid_cfg.interval_ns
        burst_results.append(BurstResult(
            index=index, start_ns=start_ns, complete_ns=complete,
            demand_bytes_per_flow=cfg.demand_bytes_per_flow,
            n_flows=cfg.n_flows,
            peak_queue_packets=int(round(max(trace.queue_frac, default=0.0)
                                         * cap_pk)),
            drops=int(round(drops / wire)),
            marked_packets=int(round(marked / wire)),
            retransmitted_packets=int(round(retransmitted / wire)),
            rto_events=0, fast_retransmits=0))
        start_ns = complete + cfg.inter_burst_gap_ns


def _assemble_cyclic_result(cfg, burst_results: list, times: list[int],
                            values: list[float]):
    """Build an :class:`IncastSimResult` from synthesized burst results
    and a queue-occupancy trace, through the packet path's own steady
    analysis (:func:`~repro.experiments.environment.steady_analysis`)."""
    from repro.experiments.environment import IncastSimResult, steady_analysis

    steady = (burst_results[1:] if len(burst_results) > 1
              else list(burst_results))
    mean_bct = (float(np.mean([r.bct_ms for r in steady]))
                if steady else 0.0)
    return IncastSimResult(
        config=cfg,
        burst_results=list(burst_results),
        steady_results=steady,
        mean_bct_ms=mean_bct,
        burst_starts_ns=[r.start_ns for r in burst_results],
        flow_sampler=None,
        network=None,
        telemetry=None,
        **steady_analysis(cfg, steady, np.asarray(times, dtype=np.int64),
                          np.asarray(values, dtype=np.float64)),
    )


def run_incast_fluid(cfg):
    """The cyclic dumbbell incast entirely on the fluid substrate."""
    fluid_cfg = _dumbbell_fluid_config(cfg)
    burst_results: list = []
    times: list[int] = []
    values: list[float] = []
    _fluid_cyclic_bursts(cfg, fluid_cfg, 0, 0, burst_results, times,
                         values)
    return _assemble_cyclic_result(cfg, burst_results, times, values)


def run_incast_hybrid(cfg):
    """Packet core for the transient window, fluid for the steady cycle.

    The first :data:`HYBRID_PACKET_BURSTS` bursts (the slow-start
    transient the paper's methodology discards, plus one measured steady
    burst) run on the packet core; the remaining bursts repeat a steady
    cycle the fluid model carries forward with window carryover.
    """
    from repro.experiments.environment import run_incast_sim

    head = min(HYBRID_PACKET_BURSTS, cfg.n_bursts)
    packet_cfg = replace(cfg, backend="packet", n_bursts=head)
    packet = run_incast_sim(packet_cfg)

    burst_results = list(packet.burst_results)
    times = [int(t) for t in packet.queue_times_ns]
    values = [float(v) for v in packet.queue_packets]
    if head < cfg.n_bursts:
        start = burst_results[-1].complete_ns + cfg.inter_burst_gap_ns
        _fluid_cyclic_bursts(cfg, _dumbbell_fluid_config(cfg), head,
                             start, burst_results, times, values)
    return _assemble_cyclic_result(cfg, burst_results, times, values)
