"""Tests for the cyclic incast workload driver."""

import numpy as np
import pytest

from repro import units
from repro.simcore.random import RngHub
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from repro.workloads.incast import (FlowStateSampler, IncastConfig,
                                    IncastWorkload, demand_per_flow_bytes)
from tests.conftest import mini_dumbbell


def build(sim, n_flows=4, **config_kwargs):
    net = mini_dumbbell(sim, n_senders=n_flows)
    cfg = TcpConfig()
    conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
             for host in net.senders]
    config = IncastConfig(**config_kwargs)
    workload = IncastWorkload(sim, conns, config, RngHub(0).stream("j"),
                              queue=net.bottleneck_queue,
                              demand_bytes_per_flow=20_000)
    return net, conns, workload


class TestDemand:
    def test_paper_demand_arithmetic(self):
        # 10 Gbps x 15 ms / 100 flows = 187.5 KB per flow.
        demand = demand_per_flow_bytes(units.gbps(10.0), units.msec(15.0),
                                       100)
        assert demand == 18_750_000 // 100

    def test_rejects_zero_flows(self):
        with pytest.raises(ValueError):
            demand_per_flow_bytes(1e9, 1000, 0)

    def test_minimum_one_byte(self):
        assert demand_per_flow_bytes(1e6, 1000, 1000) == 1


class TestConfigValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            IncastConfig(n_bursts=0)
        with pytest.raises(ValueError):
            IncastConfig(burst_duration_ns=0)

    def test_demand_required_somewhere(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig()
        conns = [open_connection(sim, cfg, Dctcp(cfg), net.senders[0],
                                 net.receiver)]
        with pytest.raises(ValueError):
            IncastWorkload(sim, conns, IncastConfig(), RngHub(0).stream("j"),
                           queue=net.bottleneck_queue)


class TestAfterCompletion:
    def test_runs_all_bursts(self, sim):
        _, conns, workload = build(sim, n_bursts=3,
                                   burst_duration_ns=units.msec(1.0),
                                   inter_burst_gap_ns=units.msec(1.0))
        workload.start()
        sim.run(until_ns=units.sec(5))
        assert workload.done
        assert len(workload.results) == 3
        for _, receiver in conns:
            assert receiver.delivered_bytes == 3 * 20_000

    def test_bursts_are_ordered_and_gapped(self, sim):
        _, _, workload = build(sim, n_bursts=3,
                               burst_duration_ns=units.msec(1.0),
                               inter_burst_gap_ns=units.msec(2.0))
        workload.start()
        sim.run(until_ns=units.sec(5))
        results = workload.results
        for earlier, later in zip(results, results[1:]):
            assert later.start_ns >= earlier.complete_ns \
                + units.msec(2.0) - 1

    def test_bct_positive_and_plausible(self, sim):
        _, _, workload = build(sim, n_bursts=2,
                               burst_duration_ns=units.msec(1.0))
        workload.start()
        sim.run(until_ns=units.sec(5))
        for result in workload.results:
            assert 0 < result.bct_ms < 100

    def test_steady_results_discard_first(self, sim):
        _, _, workload = build(sim, n_bursts=3,
                               burst_duration_ns=units.msec(1.0))
        workload.start()
        sim.run(until_ns=units.sec(5))
        steady = workload.steady_results()
        assert len(steady) == 2
        assert steady[0].index == 1

    def test_done_callbacks_fire_once(self, sim):
        _, _, workload = build(sim, n_bursts=2,
                               burst_duration_ns=units.msec(1.0))
        calls = []
        workload.add_done_callback(lambda: calls.append(sim.now))
        workload.start()
        sim.run(until_ns=units.sec(5))
        assert len(calls) == 1

    def test_mean_bct(self, sim):
        _, _, workload = build(sim, n_bursts=3,
                               burst_duration_ns=units.msec(1.0))
        workload.start()
        sim.run(until_ns=units.sec(5))
        expected = np.mean([r.bct_ms for r in workload.results[1:]])
        assert workload.mean_bct_ms() == pytest.approx(expected)


class TestPerBurstAccounting:
    def test_drops_and_marks_are_deltas(self, sim):
        net, _, workload = build(sim, n_flows=8, n_bursts=3,
                                 burst_duration_ns=units.msec(1.0))
        workload.start()
        sim.run(until_ns=units.sec(5))
        total_marks = net.bottleneck_queue.stats.marked_packets
        assert sum(r.marked_packets for r in workload.results) \
            == total_marks

    def test_flow_count_recorded(self, sim):
        _, _, workload = build(sim, n_flows=4, n_bursts=2,
                               burst_duration_ns=units.msec(1.0))
        workload.start()
        sim.run(until_ns=units.sec(5))
        assert all(r.n_flows == 4 for r in workload.results)
        assert workload.results[0].total_bytes == 4 * 20_000


class TestFlowStateSampler:
    def test_samples_inflight_and_active(self, sim):
        net, conns, workload = build(sim, n_bursts=2,
                                     burst_duration_ns=units.msec(1.0))
        sampler = FlowStateSampler(sim, [s for s, _ in conns],
                                   period_ns=units.usec(100.0))
        sampler.start()
        workload.add_done_callback(sampler.stop)
        workload.start()
        sim.run(until_ns=units.sec(5))
        assert len(sampler.times_ns) > 10
        stacked = np.stack(sampler.inflight)
        assert stacked.max() > 0
        assert len(sampler.active) == len(sampler.times_ns)
        assert np.stack(sampler.active).any()

    def test_rejects_bad_period(self, sim):
        with pytest.raises(ValueError):
            FlowStateSampler(sim, [], period_ns=0)
