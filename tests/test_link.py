"""Tests for point-to-point links: timing, busy discipline, delivery."""

import pytest

from repro import units
from repro.netsim.link import Link
from repro.netsim.packet import data_packet


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_link(sim, rate_gbps=10.0, prop_ns=5000):
    link = Link(sim, units.gbps(rate_gbps), prop_ns, name="test")
    sink = Sink()
    link.connect(sink)
    return link, sink


class TestLinkTiming:
    def test_delivery_after_tx_plus_prop(self, sim):
        link, sink = make_link(sim)
        times = []
        sink.receive = lambda p: times.append(sim.now)
        pkt = data_packet(1, 0, 9, seq=0, payload_bytes=1460)
        link.transmit(pkt)
        sim.run()
        # 1500 B at 10 Gbps = 1200 ns, plus 5000 ns propagation.
        assert times == [6200]

    def test_on_done_at_end_of_serialization(self, sim):
        link, _ = make_link(sim)
        done_at = []
        pkt = data_packet(1, 0, 9, seq=0, payload_bytes=1460)
        link.transmit(pkt, on_done=lambda: done_at.append(sim.now))
        sim.run()
        assert done_at == [1200]

    def test_zero_prop_delay_immediate_delivery(self, sim):
        link = Link(sim, units.gbps(10.0), 0)
        sink = Sink()
        link.connect(sink)
        link.transmit(data_packet(1, 0, 9, seq=0, payload_bytes=1460))
        sim.run()
        assert len(sink.received) == 1
        assert sim.now == 1200

    def test_tx_time_matches_units(self, sim):
        link, _ = make_link(sim, rate_gbps=100.0)
        pkt = data_packet(1, 0, 9, seq=0, payload_bytes=1460)
        assert link.tx_time_ns(pkt) == units.tx_time_ns(1500,
                                                        units.gbps(100.0))


class TestLinkDiscipline:
    def test_busy_while_serializing(self, sim):
        link, _ = make_link(sim)
        link.transmit(data_packet(1, 0, 9, seq=0, payload_bytes=1460))
        assert link.busy
        sim.run()
        assert not link.busy

    def test_transmit_while_busy_raises(self, sim):
        link, _ = make_link(sim)
        link.transmit(data_packet(1, 0, 9, seq=0, payload_bytes=1460))
        with pytest.raises(RuntimeError):
            link.transmit(data_packet(1, 0, 9, seq=0, payload_bytes=1460))

    def test_transmit_before_connect_raises(self, sim):
        link = Link(sim, units.gbps(10.0), 0)
        with pytest.raises(RuntimeError):
            link.transmit(data_packet(1, 0, 9, seq=0, payload_bytes=100))

    def test_counters(self, sim):
        link, _ = make_link(sim)
        link.transmit(data_packet(1, 0, 9, seq=0, payload_bytes=1460))
        sim.run()
        assert link.packets_sent == 1
        assert link.bytes_sent == 1500

    def test_rejects_bad_rate(self, sim):
        with pytest.raises(ValueError):
            Link(sim, 0.0, 0)

    def test_rejects_negative_prop(self, sim):
        with pytest.raises(ValueError):
            Link(sim, 1.0, -1)

    def test_repr_gives_rate_in_gbps_and_delay_in_ns(self, sim):
        assert repr(Link(sim, units.gbps(10.0), 5000, name="tor")) \
            == "Link(tor, 10 Gbps, prop=5000 ns)"
        assert repr(Link(sim, units.gbps(2.5), 0, name="a")) \
            == "Link(a, 2.5 Gbps, prop=0 ns)"

    def test_back_to_back_via_on_done(self, sim):
        """Chaining transmissions through on_done keeps the link saturated."""
        link, sink = make_link(sim, prop_ns=0)
        pending = [data_packet(1, 0, 9, seq=i * 1460, payload_bytes=1460)
                   for i in range(3)]

        def pump():
            if pending and not link.busy:
                link.transmit(pending.pop(0), on_done=pump)

        pump()
        sim.run()
        assert len(sink.received) == 3
        assert sim.now == 3 * 1200  # no idle gaps
