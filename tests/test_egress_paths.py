"""Which of the two egress drains a port takes, and the rails that stop
a broken feeder promise from diverging silently.

A port is *composed* (closed-form drain, fed arrival times by a promised
feeder) or *pumped* (the legacy per-packet pump); see
:mod:`repro.netsim.switch`. ``PATH_TABLE`` is the table in DESIGN.md
§ "Two egress drains".
"""

from __future__ import annotations

import pytest

from repro import units
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.netsim import switch as switch_module
from repro.netsim.host import Host
from repro.netsim.leafspine import LeafSpineConfig, build_leaf_spine
from repro.netsim.link import Link
from repro.netsim.packet import data_packet
from repro.netsim.queues import DropTailQueue, QueueStats
from repro.netsim.switch import Switch
from repro.netsim.topology import DumbbellConfig, RackConfig, build_rack
from repro.simcore.kernel import Simulator

from tests.conftest import mini_dumbbell
from tests.test_egress_differential import egress_mode, stats_tuple

SMALL = dict(n_flows=6, burst_duration_ns=units.msec(1.0), n_bursts=1,
             seed=0)


def dumbbell_ports(**config) -> list:
    net = run_incast_sim(IncastSimConfig(**SMALL, **config)).network
    return net.tor_senders.ports + net.tor_receiver.ports


def dumbbell_ports_handing_off() -> list:
    """The plain dumbbell's ports, once every NIC (the receiver's too)
    is seen to feed its trunk by chain-handoff, not delivery events."""
    net = run_incast_sim(IncastSimConfig(**SMALL)).network
    assert all(host.nic._handoff for host in net.senders + [net.receiver])
    return net.tor_senders.ports + net.tor_receiver.ports


def exchange(sim: Simulator, pairs) -> None:
    """One segment each way between every ``(a, b)`` host pair."""
    for i, (a, b) in enumerate(pairs):
        a.nic.send(data_packet(i, a.address, b.address, 0, 1000))
        b.nic.send(data_packet(i, b.address, a.address, 0, 0))
    sim.run(until_ns=units.msec(1.0))


def rack_ports(shared) -> list:
    sim = Simulator()
    rack = build_rack(sim, RackConfig(n_receivers=2, senders_per_receiver=3,
                                      shared_buffer_bytes=shared))
    exchange(sim, [(host, receiver)
                   for group, receiver in zip(rack.sender_groups,
                                              rack.receivers)
                   for host in group])
    return rack.tor_senders.ports + rack.tor_receivers.ports


def leaf_spine_ports() -> list:
    sim = Simulator()
    fab = build_leaf_spine(sim, LeafSpineConfig(n_racks=2, hosts_per_rack=2,
                                                n_spines=1))
    exchange(sim, [(a, b) for a in fab.racks[0] for b in fab.racks[1]])
    return [port for switch in fab.leaves + fab.spines
            for port in switch.ports]


# (case, ports after traffic has crossed every one, is this port composed?)
PATH_TABLE = [
    ("dumbbell", dumbbell_ports_handing_off, lambda name: True),
    ("dumbbell+shared_buffer_bytes",
     lambda: dumbbell_ports(
         dumbbell=DumbbellConfig(n_senders=6, shared_buffer_bytes=2_000_000)),
     lambda name: False),
    # pulser's degree estimator is a watcher on the bottleneck queue.
    ("dumbbell+pulser", lambda: dumbbell_ports(scheme="pulser"),
     lambda name: name != "torB.p1"),
    # Only the trunks have a declared feeder (chain-handoff NICs); nothing
    # promises who feeds a host downlink.
    ("rack, private buffers", lambda: rack_ports(None),
     lambda name: name in ("rack.torA.p6", "rack.torB.p0")),
    ("rack, shared buffer", lambda: rack_ports(2_000_000),
     lambda name: name in ("rack.torA.p6", "rack.torB.p0")),
    # ECMP fan-in: no queue has a sole feeder, the builder declares none.
    ("leaf_spine", leaf_spine_ports, lambda name: False),
]


class TestPathSelection:
    @pytest.mark.parametrize("case, ports, composed", PATH_TABLE,
                             ids=[row[0] for row in PATH_TABLE])
    def test_drain_taken_by_each_port(self, case, ports, composed):
        ports = ports()
        # Traffic crossed every port, so every port has chosen.
        assert all(port._composed or port._pumped for port in ports)
        assert not any(port._composed and port._pumped for port in ports)
        assert ({port.name for port in ports if port._composed}
                == {port.name for port in ports if composed(port.name)})

    def test_reference_switch_pumps_every_port(self, monkeypatch):
        monkeypatch.setattr(switch_module, "BATCHED_EGRESS_ENABLED", False)
        ports = dumbbell_ports()
        assert all(port._pumped and not port._composed for port in ports)

    def test_table_names_the_ports_it_means(self):
        sim = Simulator()
        net = mini_dumbbell(sim, n_senders=6)
        assert net.tor_receiver.ports[1].queue is net.bottleneck_queue
        assert net.tor_receiver.ports[1].name == "torB.p1"
        rack = build_rack(sim, RackConfig(n_receivers=2,
                                          senders_per_receiver=3))
        assert rack.tor_senders.ports[6].queue.name == "rack.torA->torB"
        assert rack.tor_receivers.ports[0].queue.name == "rack.torB->torA"


def one_port_switch(sim: Simulator, **queue_config):
    """A switch whose single port (the default route) drains onto a 10 G,
    5 us link into a sink that logs ``(time_ns, flow, seq, ecn)``."""
    delivered: list = []

    class Sink:
        def receive(self, pkt) -> None:
            delivered.append((sim.now, pkt.flow_id, pkt.seq, int(pkt.ecn)))

    switch = Switch(sim, name="sw")
    link = Link(sim, units.gbps(10.0), units.usec(5.0))
    link.connect(Sink())
    port = switch.attach_port(link, DropTailQueue(name="q", **queue_config))
    switch.set_default_route(port)
    return switch, port, delivered


class TestSafetyRails:
    def test_real_enqueue_on_a_composed_port_raises(self):
        sim = Simulator()
        net = mini_dumbbell(sim, n_senders=1)
        sender, receiver = net.senders[0], net.receiver
        sender.nic.send(data_packet(0, sender.address, receiver.address,
                                    0, 1000))
        sim.run(until_ns=units.msec(1.0))
        trunk = net.tor_senders.ports[-1]
        assert trunk._composed
        # Somebody other than the promised feeders delivers to the switch.
        with pytest.raises(RuntimeError,
                           match="sole-feeder promise was violated"):
            net.tor_senders.receive(data_packet(
                1, sender.address, receiver.address, 0, 1000))

    def test_chain_handoff_nic_checks_the_route(self):
        sim = Simulator()
        net = mini_dumbbell(sim, n_senders=2)
        a, b = net.senders
        # Sender to sender: ToR-A routes it to b's downlink, not the trunk.
        a.nic.send(data_packet(0, a.address, b.address, 0, 1000))
        with pytest.raises(RuntimeError,
                           match="does not route to the chain-handoff port"):
            sim.run(until_ns=units.msec(1.0))

    def test_fully_virtual_nic_checks_the_route(self):
        sim = Simulator()
        receiver = mini_dumbbell(sim, n_senders=1).receiver
        # ToR-B routes the receiver's own address to its downlink, not to
        # the reverse trunk its NIC hands off to, as every sender's does
        # to the forward one.
        receiver.nic.send(data_packet(0, receiver.address,
                                      receiver.address, 0, 1000))
        with pytest.raises(RuntimeError,
                           match="does not route to the chain-handoff port"):
            sim.run(until_ns=units.msec(1.0))

    def test_chain_handoff_needs_one_feeder_propagation_delay(self):
        sim = Simulator()
        switch, port, _ = one_port_switch(sim)
        hosts = []
        for delay_us in (5.0, 6.0):
            host = Host(sim, name=f"h{delay_us}")
            uplink = Link(sim, units.gbps(10.0), units.usec(delay_us))
            uplink.connect(switch)
            host.nic.connect(uplink)
            host.nic.compose_chain_into(port)
            hosts.append(host)
        hosts[0].nic.send(data_packet(0, hosts[0].address, 99, 0, 1000))
        sim.run(until_ns=units.msec(1.0))
        assert port._composed and port._vfeeder_prop == units.usec(5.0)
        hosts[1].nic.send(data_packet(1, hosts[1].address, 99, 0, 1000))
        with pytest.raises(RuntimeError,
                           match="share one propagation delay"):
            sim.run(until_ns=units.msec(2.0))


class TestComposeOfferedAfterPumpedTraffic:
    """A port that has taken a real enqueue must never engage composed:
    its transmitter state lives in the link, not in the closed form."""

    def run(self, fast: bool) -> dict:
        with egress_mode(fast):
            sim = Simulator()
            switch, port, delivered = one_port_switch(
                sim, capacity_packets=3, ecn_threshold_packets=1)
            queue = port.queue
            queue.start_interval_peaks(sim, units.usec(1.0))
            host = Host(sim, name="feeder")
            uplink = Link(sim, units.gbps(10.0), units.usec(5.0))
            uplink.connect(switch)
            host.nic.connect(uplink)
            host.nic.compose_chain_into(port)  # a promise traffic breaks
            seen: list = []

            def direct(seq: int) -> None:
                switch.receive(data_packet(0, 7, 99, seq, 1460))

            def offer() -> None:
                # Mid-transmission with an empty queue: an empty FIFO alone
                # does not mean the port never carried traffic.
                seen.append((port.link.busy, queue.len_packets))
                for seq in range(3):
                    host.nic.send(data_packet(1, host.address, 99, seq,
                                              1000))

            sim.schedule_at(0, direct, (0,))
            sim.schedule_at(100, offer)
            # The feeder's segments reach the port from 5,932 ns on, 832 ns
            # apart; these land among them (one on the same instant).
            for i, time_ns in enumerate((5_900, 5_932, 6_000, 6_800)):
                sim.schedule_at(time_ns, direct, (1 + i,))
            sim.run(until_ns=units.msec(1.0))
            assert seen == [(True, 0)]
            assert port._pumped and not port._composed
            assert not host.nic._handoff
            return {"delivered": delivered,
                    "stats": dict(zip(QueueStats.__slots__,
                                      stats_tuple(queue.stats))),
                    "peaks": dict(queue.interval_peaks()),
                    "link": (port.link.bytes_sent, port.link.packets_sent),
                    "forwarded": switch.forwarded_packets,
                    "events": sim.events_processed}

    def test_port_stays_pumped_and_equals_the_reference_run(self):
        fast, legacy = self.run(fast=True), self.run(fast=False)
        assert fast == legacy
        # The collision was real: the port queued, marked and dropped.
        assert legacy["stats"]["marked_packets"] > 0
        assert legacy["stats"]["dropped_packets"] > 0
        assert len(legacy["delivered"]) + \
            legacy["stats"]["dropped_packets"] == 8
