"""Tests for the sub-incast admission scheduler (Section 5.2)."""

import pytest

from repro import units
from repro.simcore.random import RngHub
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from repro.workloads.scheduler import IncastScheduler, SchedulerConfig
from tests.conftest import mini_dumbbell


def build(sim, n_flows=8, group_size=4, n_bursts=2, demand=20_000):
    net = mini_dumbbell(sim, n_senders=n_flows)
    cfg = TcpConfig()
    conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
             for host in net.senders]
    scheduler = IncastScheduler(
        sim, conns,
        SchedulerConfig(group_size=group_size, n_bursts=n_bursts,
                        inter_burst_gap_ns=units.msec(1.0)),
        RngHub(0).stream("j"), net.bottleneck_queue, demand)
    return net, conns, scheduler


class TestPartition:
    def test_group_count(self, sim):
        _, _, scheduler = build(sim, n_flows=10, group_size=4)
        assert scheduler.n_groups == 3  # 4 + 4 + 2

    def test_exact_division(self, sim):
        _, _, scheduler = build(sim, n_flows=8, group_size=4)
        assert scheduler.n_groups == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(group_size=0)
        with pytest.raises(ValueError):
            SchedulerConfig(n_bursts=0)


class TestExecution:
    def test_all_flows_deliver_every_burst(self, sim):
        _, conns, scheduler = build(sim, n_bursts=2)
        scheduler.start()
        sim.run(until_ns=units.sec(5))
        assert scheduler.done
        assert all(r.delivered_bytes == 2 * 20_000 for _, r in conns)
        assert len(scheduler.results) == 2

    def test_groups_are_serialized(self, sim):
        """Group 1 must not start before group 0 delivers: at any instant,
        at most one group's worth of flows has unfinished demand that has
        begun transmitting."""
        net, conns, scheduler = build(sim, n_flows=8, group_size=4,
                                      n_bursts=1)
        scheduler.start()
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

    def test_single_group_equals_monolithic(self, sim):
        _, conns, scheduler = build(sim, n_flows=4, group_size=100,
                                    n_bursts=1)
        assert scheduler.n_groups == 1
        scheduler.start()
        sim.run(until_ns=units.sec(5))
        assert scheduler.done

    def test_results_record_groups(self, sim):
        _, _, scheduler = build(sim, n_bursts=1)
        scheduler.start()
        sim.run(until_ns=units.sec(5))
        assert scheduler.results[0].n_groups == 2
        assert scheduler.results[0].bct_ms > 0

    def test_steady_results_discard_first(self, sim):
        _, _, scheduler = build(sim, n_bursts=3)
        scheduler.start()
        sim.run(until_ns=units.sec(5))
        assert len(scheduler.steady_results()) == 2
        assert scheduler.mean_bct_ms() > 0

    def test_validation_errors(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        with pytest.raises(ValueError):
            IncastScheduler(sim, [], SchedulerConfig(),
                            RngHub(0).stream("j"), net.bottleneck_queue,
                            1000)
