"""Tests for the output-queued switch and its egress ports."""

import pytest

from repro import units
from repro.netsim.link import Link
from repro.netsim.packet import data_packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.switch import Switch


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def attach(sim, switch, rate_gbps=10.0, capacity=10):
    link = Link(sim, units.gbps(rate_gbps), 0)
    sink = Sink()
    link.connect(sink)
    port = switch.attach_port(link, DropTailQueue(capacity_packets=capacity))
    return port, sink


class TestForwarding:
    def test_routes_by_destination(self, sim):
        sw = Switch(sim)
        port_a, sink_a = attach(sim, sw)
        port_b, sink_b = attach(sim, sw)
        sw.add_route(1, port_a)
        sw.add_route(2, port_b)
        sw.receive(data_packet(9, 0, 1, seq=0, payload_bytes=100))
        sw.receive(data_packet(9, 0, 2, seq=0, payload_bytes=100))
        sim.run()
        assert len(sink_a.received) == 1
        assert len(sink_b.received) == 1
        assert sw.forwarded_packets == 2

    def test_default_route(self, sim):
        sw = Switch(sim)
        port, sink = attach(sim, sw)
        sw.set_default_route(port)
        sw.receive(data_packet(9, 0, 42, seq=0, payload_bytes=100))
        sim.run()
        assert len(sink.received) == 1

    def test_no_route_raises(self, sim):
        sw = Switch(sim)
        with pytest.raises(RuntimeError):
            sw.receive(data_packet(9, 0, 1, seq=0, payload_bytes=100))

    def test_route_to_foreign_port_rejected(self, sim):
        sw_a = Switch(sim)
        sw_b = Switch(sim)
        port, _ = attach(sim, sw_a)
        with pytest.raises(ValueError):
            sw_b.add_route(1, port)
        with pytest.raises(ValueError):
            sw_b.set_default_route(port)


    def test_foreign_port_error_names_the_switch(self, sim):
        """Ownership is the port's ``_switch`` back-reference (one
        comparison, not a scan of the port list): another switch's port
        still raises, with the message naming the refusing switch."""
        sw_a = Switch(sim, "torA")
        sw_b = Switch(sim, "torB")
        port, _ = attach(sim, sw_a)
        with pytest.raises(ValueError,
                           match=r"^torB: route to unattached port$"):
            sw_b.add_route(1, port)
        with pytest.raises(ValueError,
                           match=r"^torB: default route to unattached port$"):
            sw_b.set_default_route(port)
        sw_a.add_route(1, port)
        sw_a.set_default_route(port)


class TestPortPumping:
    def test_drains_queue_work_conserving(self, sim):
        sw = Switch(sim)
        port, sink = attach(sim, sw)
        sw.add_route(1, port)
        for i in range(3):
            sw.receive(data_packet(9, 0, 1, seq=i * 1460,
                                   payload_bytes=1460))
        sim.run()
        assert len(sink.received) == 3
        assert sim.now == 3 * 1200  # back-to-back serialization

    def test_enqueue_returns_false_on_overflow(self, sim):
        sw = Switch(sim)
        port, _ = attach(sim, sw, capacity=1)
        # First packet starts transmitting (leaves queue), next two fill,
        # subsequent offers overflow.
        results = [port.enqueue(data_packet(9, 0, 1, seq=i,
                                            payload_bytes=1460))
                   for i in range(3)]
        assert results == [True, True, False]
        assert port.queue.stats.dropped_packets == 1

    def test_ports_property(self, sim):
        sw = Switch(sim)
        port, _ = attach(sim, sw)
        assert sw.ports == [port]
