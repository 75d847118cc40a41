"""Ablations and design-direction experiments.

These go beyond the paper's figures to quantify the design choices and
future directions its text calls out:

- **A: buffer sharing** — private vs shared switch buffers at fixed flow
  counts (Section 4.1.1: "if the simulations modeled a shared switch
  buffer ... bursts would experience loss at lower flow counts"), plus the
  private-buffer flow-count sweep that locates the analytic overflow
  boundary K > capacity + BDP.
- **B: guardrail** — capping CWND from the predicted incast degree
  (Section 5.1, the ``guardrail`` scheme) cuts the burst-start spike
  without hurting BCT.
- **C: scheduling** — splitting a 500-flow incast into admission groups of
  100 (Section 5.2) keeps each group in the healthy regime.
- **D: g sweep** — DCTCP's estimation gain is a brittle knob (Section 5.1).
- **E: pacing** — a Swift-like sub-MSS-window CCA escapes the degenerate
  point at high flow counts (Section 5.2).
- **F: window validation** — RFC 2861 CWND restart after idle *cannot*
  remove carried-over straggler state during incast, because the restart
  window is min(init, cwnd) and incast-converged windows (1-3 MSS) sit
  below the 10-MSS initial window. The ablation demonstrates that null
  result — the reason Section 5.1 argues for *remembering* the lower
  incast-appropriate window (guardrails) rather than forgetting.
- **G: predictability** — out-of-sample accuracy of the incast-degree
  predictor across fleet snapshots (quantifying Figure 3's actionable
  claim).
- **H: delayed ACKs** — the aggregation the paper disables "because it
  exacerbates burstiness and masks the impact of DCTCP's congestion
  control".
- **I: ECN threshold** — the switch-side knob: lower thresholds shorten
  queues but mark constantly; higher thresholds delay feedback (the paper
  runs production at 6.7% of capacity, above the DCTCP recommendation, to
  avoid underutilization from host burstiness).
- **J: SACK** — the paper notes that at incast window sizes, "TCP's
  normal triple-dupACK fast retransmit does not function and losses can
  only be detected via timeouts". This ablation checks whether *modern*
  SACK-based recovery changes that: it helps at moderate windows (Figure 6
  spikes) but cannot rescue Mode 3 — one-packet windows generate no SACK
  blocks to trigger recovery.
- **K: rack contention** — two simultaneous incasts to different receivers
  on the same ToR. With shared buffering, each victim's effective capacity
  shrinks while the other bursts (Section 3.4's "rack-level contention"),
  producing losses the private-queue model absorbs.
- **L: fan-in latency** — the introduction's motivation, measured: fixed
  query work divided across more workers improves nothing once responses
  congest the coordinator's downlink, and collapses (RTO-bound tail) once
  the aggregate first window overflows the queue.
- **M: receiver-window throttling** — an ICTCP-like receiver (the
  ``ictcp`` scheme) that divides a Mode 1 byte budget across active
  connections. It matches the sender guardrail at moderate degrees and
  stops helping at the same 1-MSS floor, quantifying why the paper groups
  ICTCP with the O(50)-flow designs.
- **N: topology abstraction** — the paper collapses its three-layer
  datacenter to a dumbbell for the Section 4 diagnosis. This ablation runs
  the same cross-rack incast on a full leaf-spine fabric and shows the
  bottleneck behaviour (queue at the destination leaf downlink, BCT,
  marking) matches the dumbbell, validating the abstraction.
- **O: service-level latency** — the measurement Section 3.5 says it
  omits: a partition/aggregate service's query completion time, with and
  without a bursty neighbour contending for the rack's shared buffer. The
  victim's QCT tail absorbs the neighbour's buffer pressure exactly as the
  paper's prose predicts.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import units
from repro.analysis.tables import format_table
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.environment import (SUMMARY_COLUMNS, IncastSimResult,
                                           run_incast_sim,
                                           scaled_incast_config)
from repro.experiments.result import ExperimentResult
from repro.netsim.topology import DumbbellConfig, build_dumbbell
from repro.simcore.random import RngHub
from repro.tcp.config import TcpConfig
from repro.workloads.incast import demand_per_flow_bytes
from repro.workloads.scheduler import IncastScheduler, SchedulerConfig
from repro.simcore.kernel import Simulator
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.connection import open_connection


def _incast(scale: float, seed: int, overrides: dict) -> IncastSimResult:
    """One ablation row's dumbbell incast (the scale rule's burst shape,
    a 120 s horizon, ``overrides`` with dotted keys allowed), run."""
    return run_incast_sim(scaled_incast_config(
        {"seed": seed, "max_sim_time_ns": units.sec(120.0), **overrides},
        scale))


def _summary(scale: float, seed: int, overrides: dict) -> list:
    """One ablation row's incast summarised under
    :data:`SUMMARY_COLUMNS`."""
    return _incast(scale, seed, overrides).summary_row()


def run_buffer_sharing(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Ablation A: private vs shared buffers; private overflow sweep."""
    result = ExperimentResult(
        name="ablation_buffer",
        description="Shared switch buffers move the loss point to lower "
                    "flow counts (Section 4.1.1)",
    )
    rows = []
    for n_flows in (500, 1000):
        for shared in (None, 2_000_000):
            label = "shared 2MB" if shared else "private 1333p"
            rows.append([n_flows, label] + _summary(scale, seed, {
                "n_flows": n_flows,
                "dumbbell.shared_buffer_bytes": shared}))
    result.data["sharing_rows"] = rows
    result.add_section(format_table(
        ["flows", "buffer"] + SUMMARY_COLUMNS, rows,
        title="Ablation A1: buffer sharing at fixed flow count"))

    sweep_rows = [[n_flows] + _summary(scale, seed, {"n_flows": n_flows})
                  for n_flows in (1000, 1200, 1400)]
    model = scaled_incast_config({}, scale).mode_model()
    result.data["sweep_rows"] = sweep_rows
    result.data["overflow_point"] = model.overflow_point
    result.add_section(format_table(
        ["flows"] + SUMMARY_COLUMNS, sweep_rows,
        title=f"Ablation A2: private-buffer overflow sweep (analytic "
              f"boundary K > capacity + BDP = {model.overflow_point})"))
    return result


def run_scheduler(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Ablation C: monolithic 500-flow incast vs 5 scheduled groups of 100."""
    result = ExperimentResult(
        name="ablation_scheduler",
        description="Scheduling a large incast as sub-incasts keeps each "
                    "group in the healthy regime (Section 5.2)",
    )
    n_flows = 500
    shape = scaled_incast_config({}, scale)
    mono_row = ["monolithic x500"] + _summary(scale, seed,
                                              {"n_flows": n_flows})

    # Scheduled variant: same demand, groups of 100 admitted sequentially.
    sim = Simulator()
    net = build_dumbbell(sim, DumbbellConfig(n_senders=n_flows))
    tcp_cfg = TcpConfig()
    conns = [open_connection(sim, tcp_cfg, Dctcp(tcp_cfg), host,
                             net.receiver) for host in net.senders]
    demand = demand_per_flow_bytes(net.config.host_rate_bps,
                                   shape.burst_duration_ns, n_flows)
    scheduler = IncastScheduler(
        sim, conns,
        SchedulerConfig(group_size=100, n_bursts=shape.n_bursts),
        RngHub(seed).stream("jitter"), net.bottleneck_queue, demand)
    scheduler.start()
    sim.run(until_ns=units.sec(120.0))
    if not scheduler.done:
        raise RuntimeError("scheduled incast did not complete")
    steady = scheduler.steady_results()
    sched_row = [
        "scheduled 5x100",
        round(scheduler.mean_bct_ms(), 2),
        max(r.peak_queue_packets for r in steady),
        "-",
        sum(r.drops for r in steady),
        sum(r.rto_events for r in steady),
        "-",
    ]
    rows = [mono_row, sched_row]
    result.data["rows"] = rows
    result.data["monolithic_mean_queue"] = mono_row[3]
    result.add_section(format_table(
        ["variant"] + SUMMARY_COLUMNS, rows,
        title="Ablation C: 500 flows, monolithic vs scheduled admission "
              "(healthy queue at the cost of serialized groups)"))
    return result


def run_pacing(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Ablation E: Swift-like sub-MSS pacing vs DCTCP at high flow count."""
    result = ExperimentResult(
        name="ablation_pacing",
        description="Sub-MSS pacing escapes the 1-MSS degenerate point "
                    "(Section 5.2), at the cost of slower bursts",
    )
    rows = []
    base_burst = scaled_incast_config({}, scale).burst_duration_ns
    for duration_label, burst_ns in (("short", base_burst),
                                     ("long 4x", 4 * base_burst)):
        for cca in ("dctcp", "swiftlike"):
            rows.append([duration_label,
                         round(units.ns_to_ms(burst_ns), 1), cca]
                        + _summary(scale, seed, {
                            "n_flows": 500, "cca": cca,
                            "burst_duration_ns": burst_ns}))
    result.data["rows"] = rows
    result.add_section(format_table(
        ["burst", "dur (ms)", "CCA"] + SUMMARY_COLUMNS, rows,
        title="Ablation E: window floor vs fractional pacing at 500 flows "
              "(paper Section 5.2: pacing suits long incasts; short bursts "
              "defeat it)"))
    return result


def run_predictability(scale: float = 1.0, seed: int = 0
                       ) -> ExperimentResult:
    """Ablation G: out-of-sample accuracy of the incast-degree predictor.

    Trains on each service's first snapshots and checks the forecast
    against the held-out remainder — the quantitative version of
    Section 3.3's "incast solutions can leverage this stability as
    predictability".
    """
    from repro.core.predictor import IncastDegreePredictor
    from repro.measurement.collection import CampaignConfig, run_campaign

    hosts = max(2, int(round(10 * scale)))
    snapshots = max(4, int(round(12 * scale)))
    campaign = run_campaign(CampaignConfig(
        hosts_per_service=hosts, n_snapshots=snapshots, seed=seed))
    split = snapshots // 2
    rows = []
    for service, summaries in campaign.summaries.items():
        predictor = IncastDegreePredictor()
        train = [s for s in summaries if s.snapshot_index < split]
        test = [s for s in summaries if s.snapshot_index >= split]
        for snapshot_index in sorted({s.snapshot_index for s in train}):
            flows = np.concatenate(
                [s.flow_counts for s in train
                 if s.snapshot_index == snapshot_index and len(s.flow_counts)])
            predictor.observe_snapshot(flows)
        forecast = predictor.forecast()
        held_out = np.concatenate([s.flow_counts for s in test
                                   if len(s.flow_counts)])
        realized_mean = float(held_out.mean())
        realized_p99 = float(np.percentile(held_out, 99))
        rows.append([
            service,
            round(forecast.mean, 1), round(realized_mean, 1),
            round(abs(forecast.mean - realized_mean)
                  / max(realized_mean, 1e-9), 3),
            round(forecast.p99, 1), round(realized_p99, 1),
            round(abs(forecast.p99 - realized_p99)
                  / max(realized_p99, 1e-9), 3),
            forecast.stable,
        ])
    result = ExperimentResult(
        name="ablation_predictability",
        description="Out-of-sample incast-degree prediction accuracy "
                    "(Section 3.3's stability, quantified)",
        data={"rows": rows},
    )
    result.add_section(format_table(
        ["service", "pred mean", "real mean", "mean err", "pred p99",
         "real p99", "p99 err", "stable"],
        rows, title="Ablation G: predict next-half-campaign incast degree "
                    "from the first half"))
    return result


#: Ablations B, D, F, H, I, J and M: one dumbbell incast per table row.
#: Name -> (result name, description, label headers, table title, rows
#: of ``(label cells, overrides)``); :func:`run_table` runs one. A string
#: label cell is formatted with the row's ``scheme_stats``, so B's label
#: names the cap the run enforced.
TABLES = {
    "guardrail": (
        "ablation_guardrail",
        "A CWND cap sized from the predicted incast degree removes the "
        "burst-start spike (Section 5.1)",
        ["flows", "sender"], "Ablation B: guardrail on/off",
        [row for n in (100, 150) for row in (
            ([n, "dctcp"], {"n_flows": n}),
            ([n, "dctcp+cap {cap_bytes}B"],
             {"n_flows": n, "scheme": "guardrail"}))]),
    "g": (
        "ablation_g",
        "DCTCP g sweep at 100 flows (Section 5.1: tuning g is brittle and "
        "does not address the root cause)",
        ["g"], "Ablation D: DCTCP gain sweep",
        [([label], {"n_flows": 100, "dctcp_g": g}) for label, g in
         (("1/64", 1.0 / 64.0), ("1/16", 1.0 / 16.0), ("1/4", 1.0 / 4.0),
          ("1", 1.0))]),
    "idle": (
        "ablation_idle_restart",
        "CWND restart after idle (RFC 2861) vs persistent windows: restart "
        "is a no-op during incast because converged windows sit below the "
        "initial window (min(init, cwnd) semantics) — motivating "
        "guardrails over forgetting (Section 5.1)",
        ["idle policy"],
        "Ablation F: window validation vs burst-boundary divergence",
        # The restart threshold (1 ms) is below the inter-burst gap, so
        # validation fires at every burst boundary; the RFC 2861 default
        # threshold (one RTO = 200 ms) would never trigger here.
        [([label], {"n_flows": 100, "inter_burst_gap_ns": units.msec(5.0),
                    "tcp.cwnd_restart_after_idle": restart,
                    "tcp.idle_restart_threshold_ns": units.msec(1.0)})
         for label, restart in (("persistent (default)", False),
                                ("restart after idle", True))]),
    "delayed_ack": (
        "ablation_delayed_ack",
        "Delayed ACKs exacerbate burstiness and mask DCTCP's control (the "
        "paper's reason for disabling them)",
        ["receiver"], "Ablation H: ACK aggregation at 100 flows",
        [([label], {"n_flows": 100, "tcp.delayed_ack": delayed})
         for label, delayed in (("per-packet ACKs (paper)", False),
                                ("delayed ACKs", True))]),
    "ecn_threshold": (
        "ablation_ecn_threshold",
        "ECN threshold trades queueing delay against feedback timeliness "
        "(the paper's production threshold sits above the DCTCP "
        "recommendation)",
        ["ECN threshold (pkts)"],
        "Ablation I: marking threshold sweep at 100 flows",
        [([k], {"n_flows": 100, "dumbbell.ecn_threshold_packets": k})
         for k in (20, 65, 200, 600)]),
    "sack": (
        "ablation_sack",
        "SACK recovery helps at moderate windows but cannot rescue Mode 3: "
        "1-MSS windows generate no SACK blocks",
        ["case", "recovery"],
        "Ablation J: SACK vs NewReno recovery under incast",
        # Mode 3: 1000 flows on a shared buffer (the Figure 5c panel);
        # the Figure 6 spike regime: 500 flows, 2 ms bursts, private.
        [([case, "sack" if sack else "newreno"],
          {**overrides, "tcp.sack_enabled": sack})
         for case, overrides in (
             ("mode3 1000 flows",
              {"n_flows": 1000, "dumbbell.shared_buffer_bytes": 2_000_000}),
             ("spike 500 flows/2ms",
              {"n_flows": 500, "burst_duration_ns": units.msec(2.0)}))
         for sack in (False, True)]),
    "receiver_throttle": (
        "ablation_receiver_throttle",
        "Receiver-window (ICTCP-like) throttling helps at moderate degree "
        "and hits the same 1-MSS floor as sender windows",
        ["flows", "receiver"],
        "Ablation M: ICTCP-like receiver-window throttling",
        [([n, label], {"n_flows": n, **scheme})
         for n in (100, 500)
         for label, scheme in (("dctcp alone", {}),
                               ("ictcp-like rwnd", {"scheme": "ictcp"}))]),
}


def run_table(name: str, scale: float = 1.0,
              seed: int = 0) -> ExperimentResult:
    """Run one :data:`TABLES` ablation: each row's incast, summarised."""
    result_name, description, headers, title, rows = TABLES[name]
    result = ExperimentResult(name=result_name, description=description)
    result.data["rows"] = []
    for cells, overrides in rows:
        run = _incast(scale, seed, overrides)
        stats = run.scheme_stats or {}
        result.data["rows"].append(
            [cell.format_map(stats) if isinstance(cell, str)
             else cell for cell in cells] + run.summary_row())
    result.add_section(format_table(headers + SUMMARY_COLUMNS,
                                    result.data["rows"], title=title))
    return result


def run_rack_contention(scale: float = 1.0, seed: int = 0
                        ) -> ExperimentResult:
    """Ablation K: simultaneous incasts to two receivers on one ToR."""
    from repro.netsim.topology import RackConfig, build_rack
    from repro.workloads.incast import IncastConfig, IncastWorkload

    result = ExperimentResult(
        name="ablation_rack",
        description="Rack-level contention: a neighbour's burst consumes "
                    "shared switch memory and induces victim losses "
                    "(Section 3.4)",
    )
    shape = scaled_incast_config({}, scale)
    burst_ns, n_bursts = shape.burst_duration_ns, shape.n_bursts
    n_flows = 700  # per receiver: fits a private 1333-pkt queue alone
    rows = []
    for shared in (None, 2_000_000):
        sim = Simulator()
        rack = build_rack(sim, RackConfig(
            n_receivers=2, senders_per_receiver=n_flows,
            shared_buffer_bytes=shared))
        tcp_cfg = TcpConfig()
        workloads = []
        for rx_index, (group, receiver, queue) in enumerate(
                zip(rack.sender_groups, rack.receivers,
                    rack.receiver_queues)):
            conns = [open_connection(sim, tcp_cfg, Dctcp(tcp_cfg), host,
                                     receiver) for host in group]
            demand = demand_per_flow_bytes(rack.config.host_rate_bps,
                                           burst_ns, n_flows)
            workload = IncastWorkload(
                sim, conns,
                IncastConfig(n_bursts=n_bursts,
                             burst_duration_ns=burst_ns),
                # Keyed by receiver *index*, not host address: addresses
                # come from a process-global counter, so using them here
                # would make the jitter stream (and hence the result)
                # depend on what else ran earlier in the process.
                RngHub(seed).stream(f"jitter{rx_index}"),
                queue=queue, demand_bytes_per_flow=demand)
            workload.start()
            workloads.append(workload)
        sim.run(until_ns=units.sec(120.0))
        if not all(w.done for w in workloads):
            raise RuntimeError("rack workloads incomplete")
        label = "shared 2MB" if shared else "private queues"
        for index, workload in enumerate(workloads):
            steady = workload.steady_results()
            rows.append([
                label, f"receiver{index}",
                round(workload.mean_bct_ms(), 2),
                max(r.peak_queue_packets for r in steady),
                sum(r.drops for r in steady),
                sum(r.rto_events for r in steady),
            ])
    result.data["rows"] = rows
    result.add_section(format_table(
        ["buffer", "victim", "BCT (ms)", "peak queue", "drops", "RTOs"],
        rows,
        title=f"Ablation K: two simultaneous {n_flows}-flow incasts on "
              f"one rack"))
    return result


def run_fanin_latency(scale: float = 1.0, seed: int = 0
                      ) -> ExperimentResult:
    """Ablation L: query completion time vs partition/aggregate fan-in."""
    from repro.workloads.partition_aggregate import (
        PartitionAggregateConfig, PartitionAggregateWorkload)

    result = ExperimentResult(
        name="ablation_fanin",
        description="Query latency vs fan-in: parallelism stops helping at "
                    "the downlink and collapses at first-window overflow",
    )
    total_bytes = 2_000_000
    n_queries = max(3, int(round(6 * scale)))
    rows = []
    for fan_in in (16, 128, 256, 512):
        sim = Simulator()
        net = build_dumbbell(sim, DumbbellConfig(n_senders=fan_in))
        tcp_cfg = TcpConfig()
        workload = PartitionAggregateWorkload(
            sim, net,
            PartitionAggregateConfig(
                n_queries=n_queries,
                response_bytes=max(1, total_bytes // fan_in)),
            tcp_cfg, lambda: Dctcp(tcp_cfg),
            RngHub(seed).stream("pa"))
        workload.start()
        sim.run(until_ns=units.sec(120.0))
        if not workload.done:
            raise RuntimeError("fan-in workload incomplete")
        pcts = workload.qct_percentiles((50.0, 99.0))
        stats = net.bottleneck_queue.stats
        rows.append([fan_in, round(pcts[50.0], 2), round(pcts[99.0], 2),
                     stats.max_len_packets, stats.dropped_packets])
    result.data["rows"] = rows
    result.add_section(format_table(
        ["fan-in", "QCT p50 (ms)", "QCT p99 (ms)", "peak queue", "drops"],
        rows,
        title=f"Ablation L: query latency vs fan-in "
              f"({total_bytes // 1000} KB of responses per query)"))
    return result


def run_topology_validation(scale: float = 1.0, seed: int = 0
                            ) -> ExperimentResult:
    """Ablation N: dumbbell vs full leaf-spine for the same incast."""
    from repro.netsim.leafspine import LeafSpineConfig, build_leaf_spine
    from repro.workloads.incast import IncastConfig, IncastWorkload

    result = ExperimentResult(
        name="ablation_topology",
        description="The dumbbell abstraction holds: a cross-rack incast "
                    "on a leaf-spine fabric bottlenecks identically at the "
                    "destination downlink",
    )
    shape = scaled_incast_config({}, scale)
    burst_ns, n_bursts = shape.burst_duration_ns, shape.n_bursts
    n_flows = 96
    rows = []

    # Dumbbell run.
    rows.append(["dumbbell"] + _summary(scale, seed, {"n_flows": n_flows}))

    # Leaf-spine run: the same flow count spread over three source racks.
    sim = Simulator()
    fabric = build_leaf_spine(sim, LeafSpineConfig(
        n_racks=4, hosts_per_rack=n_flows // 3))
    tcp_cfg = TcpConfig()
    receiver_host = fabric.racks[0][0]
    senders = [host for rack in fabric.racks[1:] for host in rack]
    conns = [open_connection(sim, tcp_cfg, Dctcp(tcp_cfg), host,
                             receiver_host) for host in senders]
    demand = demand_per_flow_bytes(fabric.config.host_rate_bps, burst_ns,
                                   len(senders))
    bottleneck = fabric.downlink_queue(receiver_host)
    workload = IncastWorkload(
        sim, conns,
        IncastConfig(n_bursts=n_bursts, burst_duration_ns=burst_ns),
        RngHub(seed).stream("jitter"), queue=bottleneck,
        demand_bytes_per_flow=demand)
    workload.start()
    sim.run(until_ns=units.sec(120.0))
    if not workload.done:
        raise RuntimeError("leaf-spine workload incomplete")
    steady = workload.steady_results()
    rows.append([
        "leaf-spine (3 source racks)",
        round(workload.mean_bct_ms(), 2),
        max(r.peak_queue_packets for r in steady),
        "-",
        sum(r.drops for r in steady),
        sum(r.rto_events for r in steady),
        "-",
    ])
    result.data["rows"] = rows
    result.add_section(format_table(
        ["topology"] + SUMMARY_COLUMNS, rows,
        title=f"Ablation N: {n_flows}-flow incast, dumbbell vs leaf-spine"))
    return result


def run_service_latency(scale: float = 1.0, seed: int = 0
                        ) -> ExperimentResult:
    """Ablation O: QCT impact of a bursty rack neighbour."""
    from repro.netsim.topology import RackConfig, build_rack
    from repro.workloads.incast import IncastConfig, IncastWorkload
    from repro.workloads.partition_aggregate import (
        PartitionAggregateConfig, PartitionAggregateWorkload)

    result = ExperimentResult(
        name="ablation_service_latency",
        description="Service-level latency (the measurement Section 3.5 "
                    "omits): a neighbour's bursts inflate the victim's "
                    "query-completion tail via shared-buffer pressure",
    )
    n_queries = max(12, int(round(24 * scale)))
    burst_ns = scaled_incast_config({}, scale).burst_duration_ns
    rows = []
    for neighbour_active in (False, True):
        sim = Simulator()
        rack = build_rack(sim, RackConfig(
            n_receivers=2, senders_per_receiver=320,
            shared_buffer_bytes=1_200_000))
        tcp_cfg = TcpConfig()
        # Small responses (3 segments) mean a drop often hits a worker's
        # final window, where only the RTO can recover — the tail-latency
        # mechanism of Section 3.5.
        victim_workers = rack.sender_groups[0][:96]
        victim = PartitionAggregateWorkload.over_hosts(
            sim, victim_workers, rack.receivers[0],
            PartitionAggregateConfig(n_queries=n_queries,
                                     response_bytes=6_500),
            tcp_cfg, lambda: Dctcp(tcp_cfg), RngHub(seed).stream("victim"))
        if neighbour_active:
            # A 400-flow degenerate-mode neighbour holds ~560 KB of the
            # shared pool as standing queue, shrinking the victim's
            # dynamic-threshold ceiling below its response burst. Its
            # flows start at converged 1-MSS windows (mid-workload state)
            # so the first burst pins the queue instead of imploding into
            # a synchronized RTO that would leave the pool empty.
            neighbour_tcp = TcpConfig(init_cwnd_segments=1)
            neighbour_conns = [
                open_connection(sim, neighbour_tcp, Dctcp(neighbour_tcp),
                                host, rack.receivers[1])
                for host in rack.sender_groups[1]]
            demand = demand_per_flow_bytes(rack.config.host_rate_bps,
                                           burst_ns, 320)
            neighbour = IncastWorkload(
                sim, neighbour_conns,
                IncastConfig(n_bursts=max(20, int(round(44 * scale))),
                             burst_duration_ns=burst_ns,
                             inter_burst_gap_ns=units.usec(500.0)),
                RngHub(seed).stream("neighbour"),
                queue=rack.receiver_queues[1],
                demand_bytes_per_flow=demand)
            neighbour.start()
        victim.start(at_ns=units.msec(2.0))
        sim.run(until_ns=units.sec(120.0))
        if not victim.done:
            raise RuntimeError("victim queries incomplete")
        pcts = victim.qct_percentiles((50.0, 99.0))
        victim_queue = rack.receiver_queues[0].stats
        rows.append([
            "bursty neighbour" if neighbour_active else "quiet rack",
            round(pcts[50.0], 2), round(pcts[99.0], 2),
            victim_queue.dropped_packets,
        ])
    result.data["rows"] = rows
    result.add_section(format_table(
        ["condition", "QCT p50 (ms)", "QCT p99 (ms)", "victim drops"],
        rows,
        title="Ablation O: partition/aggregate query latency under "
              "rack-level contention (96-worker victim, 320-flow "
              "neighbour, 1.2 MB shared buffer)"))
    return result


#: Name -> executor, in report order: ``run_unit``'s dispatch table. Each
#: takes ``(scale, seed)`` and returns one sub-report.
ALL_ABLATIONS = {
    "buffer": run_buffer_sharing,
    "guardrail": partial(run_table, "guardrail"),
    "scheduler": run_scheduler,
    "g": partial(run_table, "g"),
    "pacing": run_pacing,
    "idle": partial(run_table, "idle"),
    "predictability": run_predictability,
    "delayed_ack": partial(run_table, "delayed_ack"),
    "ecn_threshold": partial(run_table, "ecn_threshold"),
    "sack": partial(run_table, "sack"),
    "rack": run_rack_contention,
    "fanin": run_fanin_latency,
    "receiver_throttle": partial(run_table, "receiver_throttle"),
    "topology": run_topology_validation,
    "service_latency": run_service_latency,
}


#: Relative expected unit runtimes (1.0 = a typical engine unit), from
#: profiling a full ``--all`` pass. Only the scheduler reads these:
#: starting the longest units first stops a dominant unit submitted late
#: from serializing the end of a ``--jobs N`` run.
_COST_HINTS = {
    "buffer": 4.0,
    "pacing": 4.0,
    "service_latency": 3.0,
    "guardrail": 2.0,
    "g": 2.0,
    "ecn_threshold": 2.0,
    "sack": 2.0,
    "rack": 2.0,
    "receiver_throttle": 2.0,
}


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """One unit per ablation."""
    return [WorkUnit(experiment="ablations", unit_id=name,
                     fn="repro.experiments.ablations:run_unit",
                     params={"ablation": name}, scale=scale, seed=seed,
                     cost_hint=_COST_HINTS.get(name, 1.0))
            for name in ALL_ABLATIONS]


def run_unit(unit: WorkUnit) -> ExperimentResult:
    """Run one ablation."""
    return ALL_ABLATIONS[unit.params["ablation"]](scale=unit.scale,
                                                  seed=unit.seed)


def merge(work: list[WorkUnit], payloads: list, *, scale: float,
          seed: int) -> ExperimentResult:
    """Reassemble the per-ablation reports in canonical order."""
    sub_results = {unit.params["ablation"]: payload
                   for unit, payload in zip(work, payloads)}
    merged = ExperimentResult(
        name="ablations",
        description="Design-choice ablations and Section 5 directions",
    )
    for name in ALL_ABLATIONS:
        merged.merge_sub_result(name, sub_results[name])
    return merged
