"""Shared experiment environments.

:func:`run_incast_sim` is the engine behind Figures 5-7 and the ablations:
it builds the paper's dumbbell, opens N persistent DCTCP (or alternative
CCA) connections, drives the cyclic incast workload, probes the bottleneck
queue, and returns per-burst results plus burst-aligned averaged queue
traces (the paper averages the final 10 of 11 bursts).

:func:`~repro.netsim.fluid.production_fluid_config`, the Section 3
environment shared by the fleet experiments, is defined beside the fluid
model it configures and stays importable from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from repro import units
from repro.analysis.series import align_and_average
from repro.core.modes import DctcpMode, ModeModel, classify_queue_trace
from repro.netsim.fluid import production_fluid_config  # re-exported
from repro.netsim.packet import TCP_IP_HEADER_BYTES
from repro.netsim.topology import Dumbbell, DumbbellConfig, build_dumbbell
from repro.simcore.kernel import Simulator
from repro.simcore.random import RngHub
from repro.simcore.trace import PeriodicProbe
from repro.tcp.cca.base import CongestionControl
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.cca.reno import Reno
from repro.tcp.cca.swiftlike import SwiftLike
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from repro.tcp.schemes import DEFAULT_SCHEME, SchemeContext, get_scheme
from repro.telemetry.recorder import TelemetryCapture, TelemetryRecorder
from repro.workloads.incast import (BurstResult, FlowStateSampler,
                                    IncastConfig, IncastWorkload,
                                    demand_per_flow_bytes)

CCA_FACTORIES: dict[str, Callable[[TcpConfig, float], CongestionControl]] = {
    "dctcp": lambda cfg, g: Dctcp(cfg, g=g),
    "reno": lambda cfg, g: Reno(cfg),
    "swiftlike": lambda cfg, g: SwiftLike(cfg),
}


@dataclass
class IncastSimConfig:
    """One packet-level incast experiment (defaults = the paper's setup)."""

    n_flows: int = 100
    burst_duration_ns: int = units.msec(15.0)
    n_bursts: int = 11
    inter_burst_gap_ns: int = units.msec(5.0)
    seed: int = 0
    cca: str = "dctcp"
    dctcp_g: float = 1.0 / 16.0
    dumbbell: DumbbellConfig = field(default_factory=DumbbellConfig)
    tcp: TcpConfig = field(default_factory=TcpConfig)
    queue_probe_period_ns: int = units.usec(50.0)
    sample_flows: bool = False
    flow_sample_period_ns: int = units.usec(100.0)
    max_sim_time_ns: int = units.sec(20.0)
    telemetry: bool = False
    telemetry_interval_ns: int = units.msec(1.0)
    scheme: str = DEFAULT_SCHEME
    scheme_params: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.cca not in CCA_FACTORIES:
            raise ValueError(f"unknown CCA {self.cca!r}; "
                             f"choose from {sorted(CCA_FACTORIES)}")
        if self.n_flows <= 0:
            raise ValueError("n_flows must be positive")
        # Fails fast on an unknown scheme or a knob it does not declare.
        get_scheme(self.scheme).validate_params(self.scheme_params or {})
        self.dumbbell = replace(self.dumbbell, n_senders=self.n_flows)

    @property
    def demand_bytes_per_flow(self) -> int:
        """Equal per-flow demand implied by the burst duration."""
        return demand_per_flow_bytes(self.dumbbell.host_rate_bps,
                                     self.burst_duration_ns, self.n_flows)

    def mode_model(self) -> ModeModel:
        """Analytic mode model for this configuration."""
        wire_packet = self.tcp.mss_bytes + TCP_IP_HEADER_BYTES
        return ModeModel(
            ecn_threshold_packets=self.dumbbell.ecn_threshold_packets or 0,
            queue_capacity_packets=self.dumbbell.queue_capacity_packets,
            bdp_packets=self.dumbbell.bdp_bytes / wire_packet,
        )


def scaled_incast_config(overrides: dict, scale: float) -> IncastSimConfig:
    """The dumbbell incast at engine ``scale``: the one scale rule of every
    Section 4 dumbbell run. Unless ``overrides`` sets them,
    ``burst_duration_ns`` is max(2 ms, 15 ms x scale) and ``n_bursts`` is
    max(3, round(11 x scale)); a value ``overrides`` sets is used as set.
    A dotted key (``tcp.delayed_ack``) sets one nested config field."""
    flat = {"burst_duration_ns": max(units.msec(2.0),
                                     int(units.msec(15.0) * scale)),
            "n_bursts": max(3, int(round(11 * scale)))}
    nested: dict = {"dumbbell": {}, "tcp": {}}
    for key, value in overrides.items():
        head, dot, leaf = key.partition(".")
        if dot:
            nested[head][leaf] = value
        else:
            flat[key] = value
    return IncastSimConfig(dumbbell=DumbbellConfig(**nested["dumbbell"]),
                           tcp=TcpConfig(**nested["tcp"]), **flat)


SUMMARY_COLUMNS = ["BCT (ms)", "peak queue", "mean queue", "drops", "RTOs",
                   "mode"]
"""Headers of :meth:`IncastSimResult.summary_row`."""


@dataclass
class IncastSimResult:
    """Outputs of one packet-level incast experiment."""

    config: IncastSimConfig
    burst_results: list[BurstResult]
    steady_results: list[BurstResult]
    mean_bct_ms: float
    queue_times_ns: np.ndarray
    queue_packets: np.ndarray
    burst_starts_ns: list[int]
    aligned_offsets_ns: np.ndarray
    aligned_queue_packets: np.ndarray
    steady_drops: int
    steady_rtos: int
    steady_marked_packets: int
    steady_retransmits: int
    mode: DctcpMode
    flow_sampler: Optional[FlowStateSampler]
    network: Optional[Dumbbell]
    telemetry: Optional[TelemetryCapture] = None
    scheme_stats: Optional[dict] = None

    @property
    def optimal_bct_ms(self) -> float:
        """The burst duration — the BCT of a perfectly scheduled burst."""
        return units.ns_to_ms(self.config.burst_duration_ns)

    @property
    def bct_inflation(self) -> float:
        """Mean steady BCT over the optimal BCT."""
        return self.mean_bct_ms / self.optimal_bct_ms \
            if self.optimal_bct_ms else 0.0

    def summary_row(self) -> list:
        """The run as one table row under :data:`SUMMARY_COLUMNS`: mean
        steady BCT, peak and mean of the burst-aligned queue, steady
        drops and RTOs, and the observed mode."""
        finite = self.aligned_queue_packets[
            np.isfinite(self.aligned_queue_packets)]
        return [
            round(self.mean_bct_ms, 2),
            round(float(finite.max()), 0) if finite.size else 0,
            round(float(finite.mean()), 0) if finite.size else 0,
            self.steady_drops,
            self.steady_rtos,
            self.mode.name,
        ]

    def __getstate__(self) -> dict:
        # Results cross process boundaries (and land in the on-disk cache)
        # as work-unit payloads. The live object graph behind ``network``
        # is not picklable and carries no measurement the figures need, so
        # it is dropped; every numeric field travels intact.
        state = self.__dict__.copy()
        state["network"] = None
        return state

    def export_dict(self) -> dict:
        """Scalar summary used by JSON export (:mod:`repro.analysis.export`).

        Keeps the exported documents small and diffable while still pinning
        the headline numbers a figure is judged by.
        """
        finite = self.aligned_queue_packets[
            np.isfinite(self.aligned_queue_packets)]
        out = {
            "n_flows": self.config.n_flows,
            "cca": self.config.cca,
            "mode": self.mode.name,
            "mean_bct_ms": self.mean_bct_ms,
            "optimal_bct_ms": self.optimal_bct_ms,
            "bct_inflation": self.bct_inflation,
            "steady_drops": self.steady_drops,
            "steady_rtos": self.steady_rtos,
            "steady_marked_packets": self.steady_marked_packets,
            "steady_retransmits": self.steady_retransmits,
            "peak_queue_packets": float(finite.max()) if finite.size else 0.0,
            "mean_queue_packets": float(finite.mean()) if finite.size
            else 0.0,
            "n_bursts": len(self.burst_results),
        }
        # Elided for the default so every pre-zoo export and golden
        # fixture stays byte-identical.
        scheme = getattr(self.config, "scheme", DEFAULT_SCHEME)
        if scheme != DEFAULT_SCHEME:
            out["scheme"] = scheme
            out["scheme_stats"] = self.scheme_stats
        return out


def run_incast_sim(cfg: IncastSimConfig) -> IncastSimResult:
    """Run one cyclic-incast simulation end to end."""
    sim = Simulator()
    net = build_dumbbell(sim, cfg.dumbbell)
    recorder = None
    if cfg.telemetry:
        # Millisampler vantage points: the incast destination, one
        # representative sender, and the two queues a burst traverses.
        # The recorder must exist before connections open so it sees every
        # flow.open event and every packet from t=0.
        recorder = TelemetryRecorder(sim,
                                     interval_ns=cfg.telemetry_interval_ns)
        recorder.attach()
        recorder.attach_host(net.receiver)
        recorder.attach_host(net.senders[0])
        recorder.attach_queue(net.bottleneck_queue)
        recorder.attach_queue(net.trunk_queue)
    # Mitigation-scheme installation must precede all traffic: schemes
    # that watch the bottleneck queue can only attach while the switch
    # fast paths can still fall back to the byte-identical legacy pump.
    # The default scheme installs nothing — the pre-zoo path, untouched.
    runtime = None
    if cfg.scheme != DEFAULT_SCHEME:
        runtime = get_scheme(cfg.scheme).install(
            SchemeContext(
                sim=sim, tcp=cfg.tcp, n_flows=cfg.n_flows,
                ecn_threshold_packets=(
                    cfg.dumbbell.ecn_threshold_packets or 0),
                queue_capacity_packets=cfg.dumbbell.queue_capacity_packets,
                bdp_bytes=cfg.dumbbell.bdp_bytes,
                bottleneck_queue=net.bottleneck_queue,
                receiver_host=net.receiver),
            cfg.scheme_params or {})

    def _conn_cca():
        cca = CCA_FACTORIES[cfg.cca](cfg.tcp, cfg.dctcp_g)
        return runtime.wrap_cca(cca) if runtime is not None else cca

    connections = [
        open_connection(sim, cfg.tcp, _conn_cca(), sender, net.receiver)
        for sender in net.senders
    ]
    if runtime is not None:
        for conn_sender, conn_receiver in connections:
            runtime.on_connection(conn_sender, conn_receiver)
    rng = RngHub(cfg.seed).stream("jitter")
    workload = IncastWorkload(
        sim, connections,
        IncastConfig(n_bursts=cfg.n_bursts,
                     burst_duration_ns=cfg.burst_duration_ns,
                     inter_burst_gap_ns=cfg.inter_burst_gap_ns),
        rng, queue=net.bottleneck_queue,
        demand_bytes_per_flow=cfg.demand_bytes_per_flow)

    probe = PeriodicProbe(sim, lambda: net.bottleneck_queue.len_packets,
                          cfg.queue_probe_period_ns, "bottleneck_queue")
    probe.start()
    sampler = None
    if cfg.sample_flows:
        sampler = FlowStateSampler(sim, [s for s, _ in connections],
                                   cfg.flow_sample_period_ns)
        sampler.start()

    workload.add_done_callback(probe.stop)
    if sampler is not None:
        workload.add_done_callback(sampler.stop)
    if runtime is not None:
        workload.add_done_callback(runtime.stop)
    workload.start()
    sim.run(until_ns=cfg.max_sim_time_ns)
    if not workload.done:
        raise RuntimeError(
            f"workload incomplete after {cfg.max_sim_time_ns} ns "
            f"({len(workload.results)}/{cfg.n_bursts} bursts)")
    probe.stop()
    if sampler is not None:
        sampler.stop()
    # At the horizon every booked record is in the past: fold them all, so
    # the result (which holds the network) keeps counters, not records.
    net.settle()

    steady = workload.steady_results()
    times, values = probe.series.times_ns, probe.series.values
    # Align each steady burst's queue trace to its own start and average,
    # as the paper does across the final 10 bursts.
    span_ns = cfg.burst_duration_ns + cfg.inter_burst_gap_ns
    segments = []
    for result in steady:
        mask = ((times >= result.start_ns)
                & (times < result.start_ns + span_ns))
        segments.append((times[mask] - result.start_ns, values[mask]))
    offsets, averaged = align_and_average(
        segments, bin_ns=cfg.queue_probe_period_ns, span_ns=span_ns)

    steady_drops = sum(r.drops for r in steady)
    # Classify the mode from *raw* per-burst samples, burst-duration
    # portion only: averaging across bursts would flatten the below-
    # threshold dips that distinguish healthy Mode 1, and the idle gap
    # would dilute Mode 2's "never below threshold" signature.
    raw_samples = []
    for result in steady:
        mask = ((times >= result.start_ns)
                & (times < result.start_ns + cfg.burst_duration_ns))
        raw_samples.append(values[mask])
    burst_portion = (np.concatenate(raw_samples) if raw_samples
                     else np.zeros(1))
    mode = classify_queue_trace(
        burst_portion if burst_portion.size else np.zeros(1),
        cfg.mode_model(), drops=steady_drops)
    return IncastSimResult(
        config=cfg,
        burst_results=workload.results,
        steady_results=steady,
        mean_bct_ms=workload.mean_bct_ms(),
        burst_starts_ns=workload.burst_starts_ns,
        flow_sampler=sampler,
        network=net,
        telemetry=_finish_telemetry(recorder, net, connections),
        scheme_stats=(runtime.finish(
            burst_starts_ns=workload.burst_starts_ns,
            burst_duration_ns=cfg.burst_duration_ns)
            if runtime is not None else None),
        queue_times_ns=times,
        queue_packets=values,
        aligned_offsets_ns=offsets,
        aligned_queue_packets=averaged,
        steady_drops=steady_drops,
        steady_rtos=sum(r.rto_events for r in steady),
        steady_marked_packets=sum(r.marked_packets for r in steady),
        steady_retransmits=sum(r.retransmitted_packets for r in steady),
        mode=mode,
    )


def _finish_telemetry(recorder: Optional[TelemetryRecorder], net: Dumbbell,
                      connections: list) -> Optional[TelemetryCapture]:
    if recorder is None:
        return None
    capture = recorder.export()
    recorder.detach()
    # Raw host addresses and flow ids come from process-global counters and
    # would differ between serial and pooled execution; renumber to
    # sim-local ids (sender index; receiver = n_senders) so captures are
    # placement-independent.
    addr_map = {host.address: i for i, host in enumerate(net.senders)}
    addr_map[net.receiver.address] = len(net.senders)
    flow_map = {sender.flow_id: i
                for i, (sender, _) in enumerate(connections)}
    return capture.renumbered(addr_map, flow_map)
