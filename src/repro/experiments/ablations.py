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

import numpy as np

from repro import units
from repro.analysis.tables import format_table
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.environment import (SUMMARY_COLUMNS,
                                           scaled_incast_config)
from repro.experiments.result import ExperimentResult
from repro.experiments.sweep import point_unit
from repro.netsim.topology import DumbbellConfig, build_dumbbell
from repro.simcore.random import RngHub
from repro.tcp.config import TcpConfig
from repro.workloads.incast import (IncastConfig, IncastWorkload,
                                    demand_per_flow_bytes)
from repro.simcore.kernel import Simulator
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.connection import open_connection

#: The horizon of every ablation's dumbbell incast.
HORIZON_NS = units.sec(120.0)


#: Ablation C's monolithic row: the default 500-flow dumbbell, the same
#: point as ``buffer/row:0``, so the engine runs it once for both.
SCHEDULER_FLOWS = 500

#: Ablation N's incast degree, on the dumbbell and on the fabric.
TOPOLOGY_FLOWS = 96


def _steady_row(label: str, sim: Simulator,
                workload: IncastWorkload) -> list:
    """Run ``workload`` to the horizon; its steady bursts as a table row
    under :data:`SUMMARY_COLUMNS` (no queue probe ran: no mean queue, no
    mode)."""
    workload.start()
    sim.run(until_ns=HORIZON_NS)
    if not workload.done:
        raise RuntimeError(f"{label}: workload incomplete")
    steady = workload.steady_results()
    return [
        label,
        round(workload.mean_bct_ms(), 2),
        max(r.peak_queue_packets for r in steady),
        "-",
        sum(r.drops for r in steady),
        sum(r.rto_events for r in steady),
        "-",
    ]


def run_scheduled(unit: WorkUnit) -> list:
    """Ablation C's own run: the :data:`SCHEDULER_FLOWS` flows admitted
    as groups of 100, summarised as its table row."""
    shape = scaled_incast_config({}, unit.scale)
    sim = Simulator()
    net = build_dumbbell(sim, DumbbellConfig(n_senders=SCHEDULER_FLOWS))
    tcp_cfg = TcpConfig()
    conns = [open_connection(sim, tcp_cfg, Dctcp(tcp_cfg), host,
                             net.receiver) for host in net.senders]
    demand = demand_per_flow_bytes(net.config.host_rate_bps,
                                   shape.burst_duration_ns, SCHEDULER_FLOWS)
    workload = IncastWorkload(
        sim, conns, IncastConfig(n_bursts=shape.n_bursts, group_size=100),
        RngHub(unit.seed).stream("jitter"), net.bottleneck_queue, demand)
    return _steady_row("scheduled 5x100", sim, workload)


def run_leaf_spine(unit: WorkUnit) -> list:
    """Ablation N's own run: :data:`TOPOLOGY_FLOWS` flows from three
    source racks of a leaf-spine fabric into one host, summarised as its
    table row."""
    from repro.netsim.leafspine import LeafSpineConfig, build_leaf_spine

    shape = scaled_incast_config({}, unit.scale)
    sim = Simulator()
    fabric = build_leaf_spine(sim, LeafSpineConfig(
        n_racks=4, hosts_per_rack=TOPOLOGY_FLOWS // 3))
    tcp_cfg = TcpConfig()
    receiver_host = fabric.racks[0][0]
    senders = [host for rack in fabric.racks[1:] for host in rack]
    conns = [open_connection(sim, tcp_cfg, Dctcp(tcp_cfg), host,
                             receiver_host) for host in senders]
    demand = demand_per_flow_bytes(fabric.config.host_rate_bps,
                                   shape.burst_duration_ns, len(senders))
    workload = IncastWorkload(
        sim, conns,
        IncastConfig(n_bursts=shape.n_bursts,
                     burst_duration_ns=shape.burst_duration_ns),
        RngHub(unit.seed).stream("jitter"),
        queue=fabric.downlink_queue(receiver_host),
        demand_bytes_per_flow=demand)
    return _steady_row("leaf-spine (3 source racks)", sim, workload)


#: Ablations C and N: a dumbbell row that is a ``dumbbell_incast`` point,
#: beside one run of their own whose executor returns its table row.
#: Name -> (result name, description, label header, title, the point's
#: ``(label, overrides)``, the own executor, data keys copied from the
#: point's row as ``key -> column``).
BESIDE = {
    "scheduler": (
        "ablation_scheduler",
        "Scheduling a large incast as sub-incasts keeps each group in the "
        "healthy regime (Section 5.2)",
        "variant",
        "Ablation C: 500 flows, monolithic vs scheduled admission "
        "(healthy queue at the cost of serialized groups)",
        ("monolithic x500", {"n_flows": SCHEDULER_FLOWS}),
        "run_scheduled",
        {"monolithic_mean_queue": 3}),
    "topology": (
        "ablation_topology",
        "The dumbbell abstraction holds: a cross-rack incast on a "
        "leaf-spine fabric bottlenecks identically at the destination "
        "downlink",
        "topology",
        f"Ablation N: {TOPOLOGY_FLOWS}-flow incast, dumbbell vs leaf-spine",
        ("dumbbell", {"n_flows": TOPOLOGY_FLOWS}),
        "run_leaf_spine",
        {}),
}


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


def tables(scale: float) -> dict:
    """Ablations A, B, D, E, F, H, I, J and M: one dumbbell incast per
    table row, each row its own ``dumbbell_incast`` unit.

    Name -> (result name, description, tables, extra data); a table is
    (data key, label headers, title, rows of ``(label cells,
    overrides)``). A string label cell is formatted with the row's
    ``scheme_stats``, so B's label names the cap the run enforced. Rows
    and titles follow ``scale``: E's bursts are the scaled burst and four
    times it, and A2's title names the analytic overflow point.
    """
    shape = scaled_incast_config({}, scale)
    burst_ns = shape.burst_duration_ns
    overflow = shape.mode_model().overflow_point
    return {
        "buffer": (
            "ablation_buffer",
            "Shared switch buffers move the loss point to lower flow counts "
            "(Section 4.1.1)",
            [("sharing_rows", ["flows", "buffer"],
              "Ablation A1: buffer sharing at fixed flow count",
              [([n, "shared 2MB" if shared else "private 1333p"],
                {"n_flows": n, "dumbbell.shared_buffer_bytes": shared})
               for n in (500, 1000) for shared in (None, 2_000_000)]),
             ("sweep_rows", ["flows"],
              f"Ablation A2: private-buffer overflow sweep (analytic "
              f"boundary K > capacity + BDP = {overflow})",
              [([n], {"n_flows": n}) for n in (1000, 1200, 1400)])],
            {"overflow_point": overflow}),
        "guardrail": (
            "ablation_guardrail",
            "A CWND cap sized from the predicted incast degree removes the "
            "burst-start spike (Section 5.1)",
            [("rows", ["flows", "sender"], "Ablation B: guardrail on/off",
              [row for n in (100, 150) for row in (
                  ([n, "dctcp"], {"n_flows": n}),
                  ([n, "dctcp+cap {cap_bytes}B"],
                   {"n_flows": n, "scheme": "guardrail"}))])], {}),
        "g": (
            "ablation_g",
            "DCTCP g sweep at 100 flows (Section 5.1: tuning g is brittle "
            "and does not address the root cause)",
            [("rows", ["g"], "Ablation D: DCTCP gain sweep",
              [([label], {"n_flows": 100, "dctcp_g": g}) for label, g in
               (("1/64", 1.0 / 64.0), ("1/16", 1.0 / 16.0),
                ("1/4", 1.0 / 4.0), ("1", 1.0))])], {}),
        "pacing": (
            "ablation_pacing",
            "Sub-MSS pacing escapes the 1-MSS degenerate point (Section "
            "5.2), at the cost of slower bursts",
            [("rows", ["burst", "dur (ms)", "CCA"],
              "Ablation E: window floor vs fractional pacing at 500 flows "
              "(paper Section 5.2: pacing suits long incasts; short bursts "
              "defeat it)",
              [([label, round(units.ns_to_ms(burst), 1), cca],
                {"n_flows": 500, "cca": cca, "burst_duration_ns": burst})
               for label, burst in (("short", burst_ns),
                                    ("long 4x", 4 * burst_ns))
               for cca in ("dctcp", "swiftlike")])], {}),
        "idle": (
            "ablation_idle_restart",
            "CWND restart after idle (RFC 2861) vs persistent windows: "
            "restart is a no-op during incast because converged windows sit "
            "below the initial window (min(init, cwnd) semantics) — "
            "motivating guardrails over forgetting (Section 5.1)",
            [("rows", ["idle policy"],
              "Ablation F: window validation vs burst-boundary divergence",
              # The restart threshold (1 ms) is below the inter-burst gap,
              # so validation fires at every burst boundary; the RFC 2861
              # default threshold (one RTO = 200 ms) would never trigger.
              [([label], {"n_flows": 100,
                          "inter_burst_gap_ns": units.msec(5.0),
                          "tcp.cwnd_restart_after_idle": restart,
                          "tcp.idle_restart_threshold_ns": units.msec(1.0)})
               for label, restart in (("persistent (default)", False),
                                      ("restart after idle", True))])], {}),
        "delayed_ack": (
            "ablation_delayed_ack",
            "Delayed ACKs exacerbate burstiness and mask DCTCP's control "
            "(the paper's reason for disabling them)",
            [("rows", ["receiver"], "Ablation H: ACK aggregation at 100 flows",
              [([label], {"n_flows": 100, "tcp.delayed_ack": delayed})
               for label, delayed in (("per-packet ACKs (paper)", False),
                                      ("delayed ACKs", True))])], {}),
        "ecn_threshold": (
            "ablation_ecn_threshold",
            "ECN threshold trades queueing delay against feedback "
            "timeliness (the paper's production threshold sits above the "
            "DCTCP recommendation)",
            [("rows", ["ECN threshold (pkts)"],
              "Ablation I: marking threshold sweep at 100 flows",
              [([k], {"n_flows": 100, "dumbbell.ecn_threshold_packets": k})
               for k in (20, 65, 200, 600)])], {}),
        "sack": (
            "ablation_sack",
            "SACK recovery helps at moderate windows but cannot rescue Mode "
            "3: 1-MSS windows generate no SACK blocks",
            [("rows", ["case", "recovery"],
              "Ablation J: SACK vs NewReno recovery under incast",
              # Mode 3: 1000 flows on a shared buffer (the Figure 5c
              # panel); the Figure 6 spike regime: 500 flows, 2 ms bursts,
              # private.
              [([case, "sack" if sack else "newreno"],
                {**overrides, "tcp.sack_enabled": sack})
               for case, overrides in (
                   ("mode3 1000 flows",
                    {"n_flows": 1000,
                     "dumbbell.shared_buffer_bytes": 2_000_000}),
                   ("spike 500 flows/2ms",
                    {"n_flows": 500, "burst_duration_ns": units.msec(2.0)}))
               for sack in (False, True)])], {}),
        "receiver_throttle": (
            "ablation_receiver_throttle",
            "Receiver-window (ICTCP-like) throttling helps at moderate "
            "degree and hits the same 1-MSS floor as sender windows",
            [("rows", ["flows", "receiver"],
              "Ablation M: ICTCP-like receiver-window throttling",
              [([n, label], {"n_flows": n, **scheme})
               for n in (100, 500)
               for label, scheme in (("dctcp alone", {}),
                                     ("ictcp-like rwnd",
                                      {"scheme": "ictcp"}))])], {}),
    }


def run_rack_contention(scale: float = 1.0, seed: int = 0
                        ) -> ExperimentResult:
    """Ablation K: simultaneous incasts to two receivers on one ToR."""
    from repro.netsim.topology import RackConfig, build_rack

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


def run_service_latency(scale: float = 1.0, seed: int = 0
                        ) -> ExperimentResult:
    """Ablation O: QCT impact of a bursty rack neighbour."""
    from repro.netsim.topology import RackConfig, build_rack
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


#: The ablations that are not single dumbbell runs, each one unit:
#: name -> executor taking ``(scale, seed)``, returning its sub-report.
WHOLE = {
    "predictability": run_predictability,
    "rack": run_rack_contention,
    "fanin": run_fanin_latency,
    "service_latency": run_service_latency,
}

#: Every ablation, in report order: a :func:`tables` entry, a
#: :data:`WHOLE` executor, or a :data:`BESIDE` point and run.
ALL_ABLATIONS = ("buffer", "guardrail", "scheduler", "g", "pacing", "idle",
                 "predictability", "delayed_ack", "ecn_threshold", "sack",
                 "rack", "fanin", "receiver_throttle", "topology",
                 "service_latency")


#: Relative expected unit runtimes (1.0 = a typical engine unit), from
#: profiling a full ``--all`` pass. Only the scheduler reads these:
#: starting the longest units first stops a dominant unit submitted late
#: from serializing the end of a ``--jobs N`` run.
_COST_HINTS = {
    "service_latency": 3.0,
    "rack": 2.0,
}


def _elided(overrides: dict, default) -> dict:
    """``overrides`` without the entries ``default`` (the scale rule's
    config) already holds, so rows that configure the same run compile
    to one cache key. Sweep specs keep every key they write."""
    def held(key: str):
        head, dot, leaf = key.partition(".")
        value = getattr(default, head)
        return getattr(value, leaf) if dot else value

    # Types too: 8.0 equals a default of 8 but exports as a float.
    return {key: value for key, value in overrides.items()
            if not (type(value) is type(held(key)) and value == held(key))}


def _plan(name: str, scale: float, seed: int) -> list[WorkUnit]:
    """One ablation's units: a :data:`WHOLE` ablation is one unit, a
    :func:`tables` ablation one ``dumbbell_incast`` point per row, and a
    :data:`BESIDE` ablation its point and then its own run."""
    if name in WHOLE:
        return [WorkUnit(experiment="ablations", unit_id=name,
                         fn="repro.experiments.ablations:run_unit",
                         params={"ablation": name}, scale=scale, seed=seed,
                         cost_hint=_COST_HINTS.get(name, 1.0))]
    if name in BESIDE:
        (_, overrides), executor = BESIDE[name][4:6]
        rows = [overrides]
        own = [WorkUnit(experiment="ablations", unit_id=name,
                        fn=f"repro.experiments.ablations:{executor}",
                        params={}, scale=scale, seed=seed)]
    else:
        rows = [overrides for table in tables(scale)[name][2]
                for _, overrides in table[3]]
        own = []
    default = scaled_incast_config({}, scale)
    return [point_unit("ablations", f"{name}/row:{index}", "dumbbell_incast",
                       _elided({"max_sim_time_ns": HORIZON_NS, **overrides},
                               default), scale, seed)
            for index, overrides in enumerate(rows)] + own


def _assemble(name: str, payloads: list, scale: float) -> ExperimentResult:
    """One ablation's sub-report from its units' payloads, in plan
    order: a :data:`WHOLE` ablation's own report, or a :func:`tables` or
    :data:`BESIDE` ablation's rows, each run summarised under
    :data:`SUMMARY_COLUMNS`."""
    if name in WHOLE:
        return payloads[0]
    if name in BESIDE:
        (result_name, description, header, title, (label, _), _,
         copied) = BESIDE[name]
        point, own = payloads
        rows = [[label] + point.summary_row(), own]
        result = ExperimentResult(
            name=result_name, description=description,
            data={"rows": rows,
                  **{key: rows[0][column] for key, column in copied.items()}})
        result.add_section(format_table([header] + SUMMARY_COLUMNS, rows,
                                        title=title))
        return result
    result_name, description, table_specs, extra = tables(scale)[name]
    result = ExperimentResult(name=result_name, description=description)
    runs = iter(payloads)
    for key, headers, title, rows in table_specs:
        result.data[key] = []
        for cells, _ in rows:
            run = next(runs)
            stats = run.scheme_stats or {}
            result.data[key].append(
                [cell.format_map(stats) if isinstance(cell, str)
                 else cell for cell in cells] + run.summary_row())
        result.add_section(format_table(headers + SUMMARY_COLUMNS,
                                        result.data[key], title=title))
    result.data.update(extra)
    return result


def run_ablation(name: str, scale: float = 1.0,
                 seed: int = 0) -> ExperimentResult:
    """Run one ablation in-process: its units, each through its
    executor, assembled as :func:`merge` assembles them."""
    return _assemble(name, [unit.resolve_fn()(unit)
                            for unit in _plan(name, scale, seed)], scale)


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """Every ablation's units, in report order."""
    return [unit for name in ALL_ABLATIONS
            for unit in _plan(name, scale, seed)]


def run_unit(unit: WorkUnit) -> ExperimentResult:
    """Run one :data:`WHOLE` ablation."""
    return WHOLE[unit.params["ablation"]](scale=unit.scale, seed=unit.seed)


def merge(work: list[WorkUnit], payloads: list, *, scale: float,
          seed: int) -> ExperimentResult:
    """Reassemble the per-ablation reports in canonical order."""
    by_name: dict = {}
    for unit, payload in zip(work, payloads):
        by_name.setdefault(unit.unit_id.partition("/")[0], []).append(payload)
    merged = ExperimentResult(
        name="ablations",
        description="Design-choice ablations and Section 5 directions",
    )
    for name in ALL_ABLATIONS:
        merged.merge_sub_result(name, _assemble(name, by_name[name], scale))
    return merged
