#!/usr/bin/env python3
"""Scheduling a large incast as a series of smaller ones (Section 5.2).

Compares a monolithic 500-flow incast against the same aggregate demand
admitted in groups of 100: each group operates in the healthy Mode 1
regime, so queueing collapses, at the cost of serializing the groups.

Run:  python examples/scheduled_incast.py [--group-size 100]
"""

import argparse

import numpy as np

from repro import units
from repro.analysis.tables import format_table
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.netsim.topology import DumbbellConfig, build_dumbbell
from repro.simcore.kernel import Simulator
from repro.simcore.random import RngHub
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from repro.workloads.incast import (IncastConfig, IncastWorkload,
                                    demand_per_flow_bytes)

N_FLOWS = 500
BURST_MS = 5.0
N_BURSTS = 4


def run_monolithic():
    config = IncastSimConfig(n_flows=N_FLOWS,
                             burst_duration_ns=units.msec(BURST_MS),
                             n_bursts=N_BURSTS)
    result = run_incast_sim(config)
    finite = result.aligned_queue_packets[
        np.isfinite(result.aligned_queue_packets)]
    return (round(result.mean_bct_ms, 2), round(float(finite.max()), 0),
            result.steady_drops,
            sum(r.rto_events for r in result.steady_results))


def run_scheduled(group_size: int):
    sim = Simulator()
    net = build_dumbbell(sim, DumbbellConfig(n_senders=N_FLOWS))
    tcp = TcpConfig()
    conns = [open_connection(sim, tcp, Dctcp(tcp), host, net.receiver)
             for host in net.senders]
    demand = demand_per_flow_bytes(net.config.host_rate_bps,
                                   units.msec(BURST_MS), N_FLOWS)
    workload = IncastWorkload(
        sim, conns, IncastConfig(n_bursts=N_BURSTS, group_size=group_size),
        RngHub(0).stream("jitter"), net.bottleneck_queue, demand)
    workload.start()
    sim.run(until_ns=units.sec(60.0))
    steady = workload.steady_results()
    return (round(workload.mean_bct_ms(), 2),
            max(r.peak_queue_packets for r in steady),
            sum(r.drops for r in steady),
            sum(r.rto_events for r in steady))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--group-size", type=int, default=100)
    args = parser.parse_args()

    print(f"Monolithic incast: {N_FLOWS} flows at once ...")
    mono = run_monolithic()
    print(f"Scheduled incast: groups of {args.group_size} ...")
    sched = run_scheduled(args.group_size)

    print()
    print(format_table(
        ["variant", "BCT (ms)", "peak queue (pkts)", "drops", "RTOs"],
        [
            [f"monolithic x{N_FLOWS}", *mono],
            [f"scheduled {-(-N_FLOWS // args.group_size)} "
             f"x {args.group_size}", *sched],
        ],
        title="Monolithic vs scheduled admission "
              f"({BURST_MS:g} ms of demand, {N_BURSTS} bursts)"))
    print("\nEach admitted group stays in the healthy window regime; the "
          "cost is the serialization of groups (higher BCT).")


if __name__ == "__main__":
    main()
