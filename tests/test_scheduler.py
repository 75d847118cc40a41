"""Tests for sub-incast admission groups (Section 5.2):
``IncastWorkload`` with ``IncastConfig.group_size`` set."""

import pytest

from repro import units
from repro.netsim.topology import DumbbellConfig, build_dumbbell
from repro.simcore.kernel import Simulator
from repro.simcore.random import RngHub
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from repro.workloads.incast import (IncastConfig, IncastWorkload,
                                    demand_per_flow_bytes)
from tests.conftest import mini_dumbbell


def build(sim, n_flows=8, group_size=4, n_bursts=2, demand=20_000):
    net = mini_dumbbell(sim, n_senders=n_flows)
    cfg = TcpConfig()
    conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
             for host in net.senders]
    workload = IncastWorkload(
        sim, conns,
        IncastConfig(n_bursts=n_bursts, group_size=group_size,
                     inter_burst_gap_ns=units.msec(1.0)),
        RngHub(0).stream("j"), net.bottleneck_queue, demand)
    return net, conns, workload


def admission_waves(sim, conns, demand=20_000):
    """Run one burst event by event; for each flow, how many flows had
    delivered their demand when it was asked for its own."""
    waves = {}
    while sim.pending_events and len(waves) < len(conns):
        sim.run(max_events=1)
        done = sum(r.delivered_bytes >= demand for _, r in conns)
        for index, (sender, _) in enumerate(conns):
            if sender.demand_end > 0:
                waves.setdefault(index, done)
    return [waves[index] for index in range(len(conns))]


class TestPartition:
    def test_group_count(self, sim):
        _, conns, workload = build(sim, n_flows=10, group_size=4,
                                   n_bursts=1)
        workload.start()
        assert admission_waves(sim, conns) == [0] * 4 + [4] * 4 + [8] * 2

    def test_exact_division(self, sim):
        _, conns, workload = build(sim, n_flows=8, group_size=4,
                                   n_bursts=1)
        workload.start()
        assert admission_waves(sim, conns) == [0] * 4 + [4] * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            IncastConfig(group_size=0)
        with pytest.raises(ValueError):
            IncastConfig(n_bursts=0)


class TestExecution:
    def test_all_flows_deliver_every_burst(self, sim):
        _, conns, workload = build(sim, n_bursts=2)
        workload.start()
        sim.run(until_ns=units.sec(5))
        assert workload.done
        assert all(r.delivered_bytes == 2 * 20_000 for _, r in conns)
        assert len(workload.results) == 2

    def test_groups_are_serialized(self, sim):
        """Group 1 must not start before group 0 delivers: at any instant,
        at most one group's worth of flows has unfinished demand that has
        begun transmitting."""
        net, conns, workload = build(sim, n_flows=8, group_size=4,
                                     n_bursts=1)
        workload.start()
        # Step until the first data packet of any group-1 flow appears.
        group1_senders = [conns[i][0] for i in range(4, 8)]
        group0_receivers = [conns[i][1] for i in range(4)]
        while sim.pending_events:
            sim.run(max_events=1)
            started = [s for s in group1_senders if s.demand_end > 0]
            if started:
                # Group 0 must already be fully delivered.
                assert all(r.delivered_bytes >= 20_000
                           for r in group0_receivers)
                break

    def test_single_group_equals_monolithic(self):
        """A group larger than the flow set is no grouping at all: the
        same bursts, event for event, as ``group_size=None``."""
        runs = []
        for group_size in (100, None):
            sim = Simulator()
            _, _, workload = build(sim, n_flows=4, group_size=group_size,
                                   n_bursts=2)
            workload.start()
            sim.run(until_ns=units.sec(5))
            assert workload.done
            runs.append((workload.results, sim.events_processed))
        assert runs[0] == runs[1]

    def test_results_record_groups(self, sim):
        """A grouped burst counts every flow and, serialized, takes
        longer than the same demand asked of every flow at once."""
        _, _, workload = build(sim, n_bursts=1)
        workload.start()
        sim.run(until_ns=units.sec(5))
        (grouped,) = workload.results
        assert grouped.n_flows == 8 and grouped.bct_ms > 0
        sim = Simulator()
        _, _, workload = build(sim, group_size=None, n_bursts=1)
        workload.start()
        sim.run(until_ns=units.sec(5))
        assert grouped.bct_ns > workload.results[0].bct_ns

    def test_steady_results_discard_first(self, sim):
        _, _, workload = build(sim, n_bursts=3)
        workload.start()
        sim.run(until_ns=units.sec(5))
        assert len(workload.steady_results()) == 2
        assert workload.mean_bct_ms() > 0

    def test_validation_errors(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        with pytest.raises(ValueError):
            IncastWorkload(sim, [], IncastConfig(group_size=100),
                           RngHub(0).stream("j"), net.bottleneck_queue,
                           1000)


#: Per-burst ``(start_ns, complete_ns, peak queue, drops, RTOs)`` and the
#: run's ``events_processed`` for 500 DCTCP flows on the default dumbbell,
#: 2 ms of demand per burst, three bursts, jitter stream ``jitter`` of
#: seed 0: groups of 120 (four full groups and one of 20) and groups of
#: 400 (the first group overflows the 1333-packet queue).
RECORDED_BURSTS = {
    120: ([(0, 2165939, 387, 0, 0),
           (7165939, 9335731, 384, 0, 0),
           (14335731, 16503122, 321, 0, 0)], 73515),
    400: ([(0, 202074618, 1333, 108, 33),
           (207074618, 409153370, 1333, 84, 28),
           (414153370, 416295048, 1125, 0, 0)], 74416),
}


@pytest.mark.parametrize("group_size", sorted(RECORDED_BURSTS),
                         ids=["uneven", "lossy"])
def test_bursts_match_the_recorded_run(group_size):
    """Admission groups reproduce, burst for burst and event for event,
    the numbers recorded from the stand-alone admission scheduler that
    group admission replaced (``repro.workloads.scheduler``)."""
    sim = Simulator()
    net = build_dumbbell(sim, DumbbellConfig(n_senders=500))
    cfg = TcpConfig()
    conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
             for host in net.senders]
    demand = demand_per_flow_bytes(net.config.host_rate_bps,
                                   units.msec(2.0), 500)
    workload = IncastWorkload(
        sim, conns, IncastConfig(n_bursts=3, group_size=group_size),
        RngHub(0).stream("jitter"), net.bottleneck_queue, demand)
    workload.start()
    sim.run(until_ns=units.sec(60.0))
    assert workload.done
    bursts = [(r.start_ns, r.complete_ns, r.peak_queue_packets, r.drops,
               r.rto_events) for r in workload.results]
    assert (bursts, sim.events_processed) == RECORDED_BURSTS[group_size]
