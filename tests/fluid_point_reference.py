"""A fluid leaf-spine grid point as first made columnar: the oracle for the
plan-to-payload path.

This is the fluid point from before its flow plan became columns: the
plan as a list of frozen :class:`~repro.workloads.mix.FlowSpec` rows,
waves as lists of rows, processor sharing that rescans every flow each
interval, the ``FctSet`` columns filled by seven list comprehensions per
wave, and the hybrid backend's steady (elephant) window. The functions
are kept verbatim, with only the imports they need, and
:func:`reference_point` dispatches a config to them the way the
scenario executors did, so that ``tests/test_fluid_plan.py`` can require
the production path to produce pickle-equal :class:`ScenarioResult` s.
The netsim kernels (``burst_start``, ``run_burst``), the row class
``FlowSpec`` and the result classes are the package's own: they are
shared, not part of what this file freezes. Do not optimise this file.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from typing import Callable, Optional

import numpy as np

from repro import units
from repro.analysis.fct import ELEPHANT, MOUSE, FctSet, merge_fct_sets
from repro.experiments.scenarios import (CrossRackIncastConfig,
                                         ScenarioResult)
from repro.netsim.fluid import (FluidColumns, FluidConfig, FluidConstants,
                                burst_start, run_burst)
from repro.netsim.leafspine import LeafSpineConfig
from repro.netsim.packet import TCP_IP_HEADER_BYTES
from repro.simcore.random import RngHub
from repro.tcp.schemes import DEFAULT_SCHEME
from repro.workloads.mix import (KIND_ELEPHANT, KIND_MOUSE,
                                 ElephantMiceConfig, FlowSpec)


def reference_point(cfg, packet_executor: Optional[Callable] = None):
    """One ``leafspine_incast`` / ``leafspine_mix`` point on the ``fluid``
    or ``hybrid`` backend, as the reference path runs it; a ``hybrid``
    point hands its burst window to ``packet_executor(name, cfg,
    flows)``."""
    if isinstance(cfg, CrossRackIncastConfig):
        name = "leafspine_incast"
        mix = ElephantMiceConfig(
            n_racks=cfg.n_racks, hosts_per_rack=cfg.hosts_per_rack,
            n_elephants=0, n_mice=cfg.n_senders,
            mouse_bytes=cfg.flow_bytes, warmup_ns=0,
            mouse_jitter_ns=cfg.start_jitter_ns)
    else:
        name = "leafspine_mix"
        mix = ElephantMiceConfig(
            n_racks=cfg.n_racks, hosts_per_rack=cfg.hosts_per_rack,
            n_elephants=cfg.n_elephants, n_mice=cfg.n_mice,
            elephant_bytes=cfg.elephant_bytes,
            mouse_bytes=cfg.mouse_bytes, warmup_ns=cfg.warmup_ns,
            mouse_jitter_ns=cfg.mouse_jitter_ns)
    flows = plan_elephant_mice(mix, RngHub(cfg.seed))
    if cfg.backend == "fluid":
        return run_fluid_plan(name, cfg, flows)
    return run_hybrid_plan(name, cfg, flows, packet_executor)


# --------------------------------------------------------------------------
# The flow plan (workloads/mix.py)
# --------------------------------------------------------------------------

def remote_ranks(cfg: ElephantMiceConfig) -> list[int]:
    """Host ranks outside the receiver's rack, in fabric build order."""
    return list(range(cfg.hosts_per_rack,
                      cfg.n_racks * cfg.hosts_per_rack))


def plan_elephant_mice(cfg: ElephantMiceConfig, rng_hub: RngHub
                       ) -> list[FlowSpec]:
    """Compile the deterministic flow plan for one scenario run.

    Elephants take the first remote hosts (one host each, so no sender
    is both elephant and mouse source unless the mice wrap); mice
    round-robin over the remaining remote hosts. All randomness (mouse
    start jitter) draws from named ``rng_hub`` streams, so the plan is a
    pure function of ``(config, hub seed)`` — independent of process
    history, worker placement, and call order.
    """
    ranks = remote_ranks(cfg)
    flows: list[FlowSpec] = []
    for i in range(cfg.n_elephants):
        flows.append(FlowSpec(
            flow_id=i, kind=KIND_ELEPHANT, src_rank=ranks[i],
            dst_rank=cfg.receiver_rank, size_bytes=cfg.elephant_bytes,
            start_ns=0))
    mouse_hosts = ranks[cfg.n_elephants:] or ranks
    jitter_rng = rng_hub.stream("mix/mouse_jitter")
    # One draw of n_mice doubles: PCG64 spends one double per element, so
    # this is bit for bit the n scalar draws, generator state included.
    jitters = (jitter_rng.uniform(0, cfg.mouse_jitter_ns,
                                  size=cfg.n_mice).tolist()
               if cfg.mouse_jitter_ns > 0 else [0] * cfg.n_mice)
    for j, jitter in enumerate(jitters):
        flows.append(FlowSpec(
            flow_id=cfg.n_elephants + j, kind=KIND_MOUSE,
            src_rank=mouse_hosts[j % len(mouse_hosts)],
            dst_rank=cfg.receiver_rank, size_bytes=cfg.mouse_bytes,
            start_ns=cfg.warmup_ns + int(jitter)))
    return flows


# --------------------------------------------------------------------------
# Provenance (experiments/scenarios.py)
# --------------------------------------------------------------------------

def _config_params(cfg) -> dict:
    """A scenario config's fields as a plain JSON-able dict.

    The default ``packet`` backend and default ``dctcp`` scheme are
    elided: exports and golden fixtures produced before those axes
    existed stay byte-identical, while any non-default choice is always
    visible in provenance.
    """
    params = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    if params.get("backend") == "packet":
        del params["backend"]
    if params.get("scheme") == DEFAULT_SCHEME:
        del params["scheme"]
    return params


# --------------------------------------------------------------------------
# The fluid and hybrid backends (experiments/backends.py)
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
