"""Tests for receiver-window flow control and the ICTCP-like throttle."""

import pytest

from repro import units
from repro.experiments.environment import run_incast_sim, scaled_incast_config
from repro.netsim.packet import TCP_IP_HEADER_BYTES
from repro.netsim.topology import DumbbellConfig, build_dumbbell
from repro.simcore.kernel import Simulator
from repro.simcore.random import RngHub
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from repro.tcp.ictcp import ReceiverWindowThrottle
from repro.workloads.incast import (IncastConfig, IncastWorkload,
                                    demand_per_flow_bytes)
from tests.conftest import mini_dumbbell

MSS = 1460


class TestReceiverWindow:
    def test_static_rwnd_limits_inflight(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig(receiver_window_bytes=2 * 1460)
        sender, receiver = open_connection(sim, cfg, Dctcp(cfg),
                                           net.senders[0], net.receiver)
        sender.send(100_000)
        # Before any ACK the sender has not learned the window: the
        # initial burst is cwnd-limited. After the first ACKs it must
        # respect the 2-segment advertisement.
        sim.run(until_ns=units.usec(200))
        assert sender.peer_rwnd_bytes == 2 * 1460
        sim.run(until_ns=units.msec(2))
        assert sender.inflight_bytes <= 2 * 1460
        sim.run(until_ns=units.sec(1))
        assert receiver.delivered_bytes == 100_000

    def test_unlimited_by_default(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig()
        sender, _ = open_connection(sim, cfg, Dctcp(cfg), net.senders[0],
                                    net.receiver)
        sender.send(100_000)
        sim.run(until_ns=units.sec(1))
        assert sender.peer_rwnd_bytes is None

    def test_runtime_window_change_applies(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig()
        sender, receiver = open_connection(sim, cfg, Dctcp(cfg),
                                           net.senders[0], net.receiver)
        sender.send(5_000_000)  # ~4 ms of transfer at 10 Gbps
        sim.run(until_ns=units.msec(1))
        receiver.advertised_window_bytes = 1460
        sim.run(until_ns=units.msec(2))
        assert sender.peer_rwnd_bytes == 1460
        assert sender.inflight_bytes <= 1460
        sim.run(until_ns=units.sec(30))
        assert receiver.delivered_bytes == 5_000_000

    def test_sub_mss_advertisement_degrades_to_one_segment(self, sim):
        """A tiny advertised window must not deadlock the connection."""
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig(receiver_window_bytes=10)
        sender, receiver = open_connection(sim, cfg, Dctcp(cfg),
                                           net.senders[0], net.receiver)
        sender.send(20_000)
        sim.run(until_ns=units.sec(1))
        assert receiver.delivered_bytes == 20_000


class TestThrottle:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            ReceiverWindowThrottle(sim, [], budget_bytes=0)
        with pytest.raises(ValueError):
            ReceiverWindowThrottle(sim, [], budget_bytes=100, period_ns=0)

    def test_divides_budget_across_active(self, sim):
        net = mini_dumbbell(sim, n_senders=4)
        cfg = TcpConfig()
        conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
                 for host in net.senders]
        throttle = ReceiverWindowThrottle(sim, [r for _, r in conns],
                                          budget_bytes=8 * 1460)
        throttle.start()
        for sender, _ in conns:
            sender.send(200_000)
        sim.run(until_ns=units.msec(1))
        # All four connections are active: each gets 2 segments.
        assert throttle.last_active_count == 4
        assert throttle.current_share_bytes() == 2 * 1460
        for _, receiver in conns:
            assert receiver.advertised_window_bytes == 2 * 1460

    def test_share_floors_at_one_mss(self, sim):
        net = mini_dumbbell(sim, n_senders=8)
        cfg = TcpConfig()
        conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
                 for host in net.senders]
        throttle = ReceiverWindowThrottle(sim, [r for _, r in conns],
                                          budget_bytes=2 * 1460)
        throttle.start()
        for sender, _ in conns:
            sender.send(50_000)
        sim.run(until_ns=units.msec(1))
        assert throttle.current_share_bytes() == 1460

    def test_budget_reallocated_when_flows_finish(self, sim):
        net = mini_dumbbell(sim, n_senders=2)
        cfg = TcpConfig()
        conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
                 for host in net.senders]
        throttle = ReceiverWindowThrottle(sim, [r for _, r in conns],
                                          budget_bytes=20 * 1460,
                                          period_ns=units.usec(100))
        throttle.start()
        conns[0][0].send(20_000_000)  # ~16 ms of transfer
        conns[1][0].send(1460)        # finishes within the first period
        sim.run(until_ns=units.usec(600))
        # Only flow 0 still makes progress; it should get the full budget.
        assert throttle.last_active_count == 1
        assert conns[0][1].advertised_window_bytes == 20 * 1460

    def test_stop_lifts_limits(self, sim):
        net = mini_dumbbell(sim, n_senders=2)
        cfg = TcpConfig()
        conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
                 for host in net.senders]
        throttle = ReceiverWindowThrottle(sim, [r for _, r in conns],
                                          budget_bytes=4 * 1460)
        throttle.start()
        throttle.stop()
        assert all(r.advertised_window_bytes is None for _, r in conns)

    def test_throttle_caps_queue_but_delivers(self, sim):
        """End to end: the throttle keeps the bottleneck near its budget
        while all demand still completes."""
        net = mini_dumbbell(sim, n_senders=12)
        cfg = TcpConfig()
        conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
                 for host in net.senders]
        throttle = ReceiverWindowThrottle(sim, [r for _, r in conns],
                                          budget_bytes=30 * 1460)
        throttle.start()
        for sender, _ in conns:
            sender.send(400_000)
        # The first in-flight window is congestion-window limited (senders
        # have not yet heard the advertisement), so judge steady state.
        sim.run(until_ns=units.msec(1))
        net.bottleneck_queue.stats.reset_watermark()
        sim.run(until_ns=units.sec(5))
        assert all(r.delivered_bytes == 400_000 for _, r in conns)
        # Steady-state peak stays near the 30-segment budget, far below
        # the unthrottled aggregate of 12 growing windows.
        assert net.bottleneck_queue.stats.max_len_packets < 60

    def test_newcomers_to_an_empty_running_throttle_share_the_budget(
            self, sim):
        """Each connection registered on a running throttle that started
        with no receivers opens at most at an even share of the budget
        over every registered receiver, itself included."""
        net = mini_dumbbell(sim, n_senders=4)
        cfg = TcpConfig()
        budget = 12 * MSS
        throttle = ReceiverWindowThrottle(sim, [], budget_bytes=budget)
        throttle.start()
        for registered, host in enumerate(net.senders, start=1):
            _, receiver = open_connection(sim, cfg, Dctcp(cfg), host,
                                          net.receiver)
            throttle.add_connection(receiver)
            assert receiver.advertised_window_bytes <= max(
                MSS, budget // registered)

    def test_newcomer_to_a_running_throttle_gets_at_most_its_share(
            self, sim):
        net = mini_dumbbell(sim, n_senders=4)
        cfg = TcpConfig()
        conns = [open_connection(sim, cfg, Dctcp(cfg), host, net.receiver)
                 for host in net.senders]
        budget = 12 * MSS
        throttle = ReceiverWindowThrottle(sim, [r for _, r in conns[:3]],
                                          budget_bytes=budget)
        throttle.start()
        throttle.add_connection(conns[3][1])
        assert conns[3][1].advertised_window_bytes <= max(MSS, budget // 4)


def _hand_wired_burst_results(n_flows: int, scale: float, seed: int):
    """Ablation M's former wiring, kept as the ``ictcp`` scheme's
    reference: one throttle over every receiver, started before traffic,
    run in slices until the workload completes."""
    shape = scaled_incast_config({}, scale)
    burst_ns, n_bursts = shape.burst_duration_ns, shape.n_bursts
    sim = Simulator()
    net = build_dumbbell(sim, DumbbellConfig(n_senders=n_flows))
    tcp_cfg = TcpConfig()
    conns = [open_connection(sim, tcp_cfg, Dctcp(tcp_cfg), host,
                             net.receiver) for host in net.senders]
    budget = ((net.config.ecn_threshold_packets or 0)
              * (tcp_cfg.mss_bytes + TCP_IP_HEADER_BYTES)
              + net.config.bdp_bytes)
    throttle = ReceiverWindowThrottle(sim, [r for _, r in conns], budget,
                                      mss_bytes=tcp_cfg.mss_bytes)
    throttle.start()
    demand = demand_per_flow_bytes(net.config.host_rate_bps, burst_ns,
                                   n_flows)
    workload = IncastWorkload(
        sim, conns,
        IncastConfig(n_bursts=n_bursts, burst_duration_ns=burst_ns),
        RngHub(seed).stream("jitter"), queue=net.bottleneck_queue,
        demand_bytes_per_flow=demand)
    workload.start()
    horizon = units.sec(120.0)
    while not workload.done and sim.now < horizon:
        sim.run(until_ns=min(horizon, sim.now + units.msec(100.0)))
    assert workload.done
    throttle.stop()
    return workload.results


@pytest.mark.parametrize("n_flows", [40, 500])
def test_ictcp_scheme_matches_a_throttle_over_all_receivers(n_flows):
    """``scheme="ictcp"`` admits every connection at its even share from
    the first packet, exactly as a throttle built over all receivers
    does (2 ms bursts at scale 0.05; at 500 flows a whole-budget first
    window reads a per-burst peak of 964 packets against 929)."""
    scale, seed = 0.05, 3
    scheme = run_incast_sim(scaled_incast_config(
        {"n_flows": n_flows, "seed": seed, "scheme": "ictcp",
         "max_sim_time_ns": units.sec(120.0)}, scale))
    assert scheme.burst_results == _hand_wired_burst_results(
        n_flows, scale, seed)
