"""Failure-injection tests: TCP under random loss, jitter, and targeted
drops that the queue-overflow path cannot produce."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.netsim.packet import data_packet
from repro.simcore.kernel import Simulator
from repro.tcp.cca.reno import Reno
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from tests.conftest import mini_dumbbell
from tests.impair import Impairment


class Collector:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def impaired_connection(sim, impair_kwargs, tcp_kwargs=None,
                        direction="data"):
    """One connection whose data (or ACK) path crosses an Impairment."""
    net = mini_dumbbell(sim, n_senders=1)
    cfg = TcpConfig(ecn_enabled=False, **(tcp_kwargs or {}))
    sender, receiver = open_connection(sim, cfg, Reno(cfg), net.senders[0],
                                       net.receiver)
    if direction == "data":
        target_nic = net.receiver.nic
    else:
        target_nic = net.senders[0].nic
    # Splice the impairment in front of the NIC by rewiring the last link.
    victim_link = (net.tor_receiver.ports[-1].link if direction == "data"
                   else net.tor_senders.ports[0].link)
    impairment = Impairment(sim, target_nic, **impair_kwargs)
    victim_link.connect(impairment)
    return net, sender, receiver, impairment


class TestImpairmentUnit:
    def test_validation(self, sim):
        sink = Collector()
        with pytest.raises(ValueError):
            Impairment(sim, sink, drop_prob=1.0)
        with pytest.raises(ValueError):
            Impairment(sim, sink, jitter_ns=-1)

    def test_targeted_drop(self, sim):
        sink = Collector()
        impairment = Impairment(sim, sink, drop_indices={1})
        for i in range(3):
            impairment.receive(data_packet(1, 0, 9, seq=i * 100,
                                           payload_bytes=100))
        sim.run()
        assert [p.seq for p in sink.packets] == [0, 200]
        assert impairment.dropped == 1
        assert impairment.delivered == 2

    def test_random_drop_rate(self, sim):
        sink = Collector()
        impairment = Impairment(sim, sink,
                                rng=np.random.default_rng(1),
                                drop_prob=0.3)
        for i in range(2000):
            impairment.receive(data_packet(1, 0, 9, seq=i,
                                           payload_bytes=10))
        sim.run()
        assert impairment.dropped == pytest.approx(600, abs=80)

    def test_jitter_preserves_order_by_default(self, sim):
        sink = Collector()
        impairment = Impairment(sim, sink,
                                rng=np.random.default_rng(2),
                                jitter_ns=10_000)
        for i in range(50):
            impairment.receive(data_packet(1, 0, 9, seq=i,
                                           payload_bytes=10))
        sim.run()
        assert [p.seq for p in sink.packets] == list(range(50))

    def test_reorder_mode_can_reorder(self, sim):
        sink = Collector()
        impairment = Impairment(sim, sink,
                                rng=np.random.default_rng(3),
                                jitter_ns=100_000, reorder=True)

        def feed(i):
            impairment.receive(data_packet(1, 0, 9, seq=i,
                                           payload_bytes=10))

        for i in range(50):
            sim.schedule(i * 10, feed, (i,))
        sim.run()
        assert [p.seq for p in sink.packets] != list(range(50))


class TestTcpUnderImpairment:
    def test_survives_random_data_loss(self, sim):
        _, sender, receiver, impairment = impaired_connection(
            sim, dict(rng=np.random.default_rng(5), drop_prob=0.05))
        sender.send(400_000)
        sim.run(until_ns=units.sec(30))
        assert receiver.delivered_bytes == 400_000
        assert impairment.dropped > 0

    def test_survives_ack_loss(self, sim):
        _, sender, receiver, impairment = impaired_connection(
            sim, dict(rng=np.random.default_rng(6), drop_prob=0.10),
            direction="ack")
        sender.send(300_000)
        sim.run(until_ns=units.sec(30))
        assert receiver.delivered_bytes == 300_000
        assert impairment.dropped > 0

    def test_tail_loss_recovers_via_rto(self, sim):
        """Dropping the final segment leaves no successors to dupACK: only
        the retransmission timer can recover (the paper's Mode 3 failure
        mechanism in miniature)."""
        _, sender, receiver, _ = impaired_connection(
            sim, dict(drop_indices={9}))  # last segment of 10
        sender.send(10 * 1460)
        sim.run(until_ns=units.sec(5))
        assert receiver.delivered_bytes == 10 * 1460
        assert sender.stats.rto_events >= 1
        assert sender.stats.fast_retransmits == 0

    def test_single_mid_loss_recovers_via_dupacks(self, sim):
        """A mid-stream loss with many successors triggers fast retransmit
        and avoids the 200 ms timeout entirely."""
        _, sender, receiver, _ = impaired_connection(
            sim, dict(drop_indices={2}))
        sender.send(200_000)
        sim.run(until_ns=units.sec(5))
        assert receiver.delivered_bytes == 200_000
        assert sender.stats.fast_retransmits >= 1
        assert sender.stats.rto_events == 0

    def test_jitter_does_not_break_delivery(self, sim):
        _, sender, receiver, _ = impaired_connection(
            sim, dict(rng=np.random.default_rng(8), jitter_ns=50_000))
        sender.send(200_000)
        sim.run(until_ns=units.sec(10))
        assert receiver.delivered_bytes == 200_000

    def test_reordering_with_sack_avoids_spurious_rto(self, sim):
        _, sender, receiver, _ = impaired_connection(
            sim, dict(rng=np.random.default_rng(9), jitter_ns=30_000,
                      reorder=True),
            tcp_kwargs=dict(sack_enabled=True))
        sender.send(300_000)
        sim.run(until_ns=units.sec(10))
        assert receiver.delivered_bytes == 300_000
        assert sender.stats.rto_events == 0

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000),
           drop=st.floats(min_value=0.0, max_value=0.15))
    def test_reliability_property_under_random_loss(self, seed, drop):
        sim = Simulator()
        _, sender, receiver, _ = impaired_connection(
            sim, dict(rng=np.random.default_rng(seed), drop_prob=drop))
        sender.send(120_000)
        sim.run(until_ns=units.sec(60))
        assert receiver.delivered_bytes == 120_000
