"""Tests for the sender's pacing mode (sub-MSS windows)."""

import pytest

from repro import units
from repro.simcore.kernel import Simulator
from repro.tcp.cca.base import CongestionControl
from repro.tcp.cca.swiftlike import SwiftLike
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from tests.conftest import mini_dumbbell


class FixedPacer(CongestionControl):
    """Test CCA: permanently sub-MSS window with a fixed pacing gap."""

    name = "fixed-pacer"

    def __init__(self, config, interval_ns):
        super().__init__(config)
        self._interval_ns = interval_ns

    def effective_cwnd_bytes(self):
        return 0.5 * self.mss

    def pacing_interval_ns(self, srtt_ns):
        return self._interval_ns

    def on_ack(self, bytes_acked, ece, snd_una, snd_nxt, now_ns):
        pass

    def on_loss(self, now_ns):
        pass

    def on_rto(self, now_ns):
        pass


class TestPacedSending:
    def test_one_packet_outstanding_at_a_time(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig()
        sender, receiver = open_connection(
            sim, cfg, FixedPacer(cfg, units.usec(100)), net.senders[0],
            net.receiver)
        sender.send(10 * 1460)
        peak_inflight = 0

        while sim.pending_events:
            sim.run(max_events=1)
            peak_inflight = max(peak_inflight, sender.inflight_bytes)
            if sender.done:
                break
        assert receiver.delivered_bytes == 10 * 1460
        assert peak_inflight <= 1460

    def test_sends_spaced_by_interval(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig()
        sender, receiver = open_connection(
            sim, cfg, FixedPacer(cfg, units.usec(200)), net.senders[0],
            net.receiver)
        arrivals = []
        net.receiver.nic.add_ingress_hook(
            lambda pkt, now: arrivals.append(now))
        sender.send(5 * 1460)
        sim.run(until_ns=units.msec(5))
        assert receiver.delivered_bytes == 5 * 1460
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(gap >= units.usec(200) * 0.95 for gap in gaps)

    def test_paced_completion_time_scales_with_interval(self):
        times = {}
        for interval_us in (50, 400):
            sim = Simulator()
            net = mini_dumbbell(sim, n_senders=1)
            cfg = TcpConfig()
            sender, receiver = open_connection(
                sim, cfg, FixedPacer(cfg, units.usec(interval_us)),
                net.senders[0], net.receiver)
            completed = []
            receiver.add_delivery_hook(
                lambda delivered: completed.append(sim.now)
                if delivered >= 20 * 1460 else None)
            sender.send(20 * 1460)
            sim.run(until_ns=units.sec(1))
            assert receiver.delivered_bytes == 20 * 1460
            times[interval_us] = completed[0]
        assert times[400] > 4 * times[50]

    def test_swiftlike_end_to_end_delivery(self, sim):
        """The real paced CCA transfers correctly over the dumbbell."""
        net = mini_dumbbell(sim, n_senders=2)
        cfg = TcpConfig()
        conns = [open_connection(sim, cfg, SwiftLike(cfg), host,
                                 net.receiver) for host in net.senders]
        for sender, _ in conns:
            sender.send(150_000)
        sim.run(until_ns=units.sec(10))
        assert all(r.delivered_bytes == 150_000 for _, r in conns)
