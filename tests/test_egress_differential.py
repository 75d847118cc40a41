"""Differential test: batched/composed egress against the legacy pump.

``netsim.switch.BATCHED_EGRESS_ENABLED = False`` forces every port onto the
per-packet pump — two kernel events per packet, no closed forms, nothing
credited — which makes it the reference the fast paths must reproduce.
Golden fixtures pin only what the experiments happened to record; here
Hypothesis draws small dumbbell scenarios aimed at the places the closed
forms can go wrong (same-instant arrivals, arrivals at the exact instant a
transmission ends, marking thresholds and capacities of a few packets,
observers reading mid-run) and everything observable is compared:

- every packet delivery ``(time_ns, flow, seq, ecn)`` at every NIC,
- every port's full :class:`QueueStats`, link byte/packet counters and
  ``Switch.forwarded_packets``,
- per-interval peak occupancy at 1 us and 1 ms,
- ``len_packets`` / ``len_bytes`` / ``stats`` read (and the watermark
  reset) at drawn instants during the run.

CI runs this module a second time with ``--hypothesis-seed=0
--hypothesis-profile=thorough`` (see ``conftest.py``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from hypothesis import example, given, settings, strategies as st

from repro import units
from repro.netsim import switch as switch_module
from repro.netsim.link import Link
from repro.netsim.packet import data_packet
from repro.netsim.queues import DropTailQueue, QueueStats
from repro.netsim.switch import Switch
from repro.netsim.topology import DumbbellConfig, build_dumbbell
from repro.simcore.kernel import Simulator

PAYLOADS = (0, 1000, 1460)  # 0 = an ACK-sized 40-byte packet
# 1 ns, and the serialization times of the three packet sizes on the 10 G
# access links and the 100 G trunk: offsets that are multiples of these
# land arrivals exactly on other packets' drain starts and ends.
STEP_NS = (1, 4, 32, 84, 120, 832, 1200)
HORIZON_NS = units.msec(3.0)

offsets = st.builds(lambda k, step: k * step,
                    st.integers(min_value=0, max_value=24),
                    st.sampled_from(STEP_NS))
# Observation instants: anywhere, or on the grid arrivals live on (send
# offset + access serialization + one to three propagation delays).
instants = st.one_of(
    st.integers(min_value=0, max_value=60_000),
    st.builds(lambda hops, off, tx: hops * 5_000 + off + tx,
              st.integers(min_value=1, max_value=3), offsets,
              st.sampled_from((0, 32, 832, 1200))))


@dataclass(frozen=True)
class Scenario:
    n_senders: int
    ecn_threshold: int
    capacity: int
    interval_ns: int
    sends: tuple      # (sender index, offset_ns, payload) toward the receiver
    replies: tuple    # (sender index, offset_ns, payload) from the receiver
    looks: tuple      # (time_ns, port index, reset watermark?)


@st.composite
def scenarios(draw) -> Scenario:
    n = draw(st.integers(min_value=1, max_value=8))
    packet = st.tuples(st.integers(min_value=0, max_value=n - 1), offsets,
                       st.sampled_from(PAYLOADS))
    return Scenario(
        n_senders=n,
        ecn_threshold=draw(st.sampled_from((1, 2, 3, 65))),
        capacity=draw(st.sampled_from((2, 4, 1333))),
        interval_ns=draw(st.sampled_from((units.usec(1.0),
                                          units.msec(1.0)))),
        sends=tuple(draw(st.lists(packet, min_size=1, max_size=40))),
        replies=tuple(draw(st.lists(packet, max_size=20))),
        looks=tuple(draw(st.lists(
            st.tuples(instants, st.integers(min_value=0, max_value=63),
                      st.booleans()), max_size=6))))


@contextlib.contextmanager
def egress_mode(fast: bool):
    saved = switch_module.BATCHED_EGRESS_ENABLED
    switch_module.BATCHED_EGRESS_ENABLED = fast
    try:
        yield
    finally:
        switch_module.BATCHED_EGRESS_ENABLED = saved


def stats_tuple(stats: QueueStats) -> tuple:
    return tuple(getattr(stats, name) for name in QueueStats.__slots__)


def look(sim: Simulator, queue: DropTailQueue, reset: bool,
         log: list) -> None:
    log.append((sim.now, queue.name, queue.len_packets, queue.len_bytes,
                stats_tuple(queue.stats)))
    if reset:
        queue.stats.reset_watermark()


def run_dumbbell(sc: Scenario, fast: bool) -> dict:
    with egress_mode(fast):
        sim = Simulator()
        net = build_dumbbell(sim, DumbbellConfig(
            n_senders=sc.n_senders,
            ecn_threshold_packets=sc.ecn_threshold,
            queue_capacity_packets=sc.capacity))
        hosts = net.senders + [net.receiver]
        switches = (net.tor_senders, net.tor_receiver)
        ports = [port for switch in switches for port in switch.ports]
        for port in ports:
            port.queue.start_interval_peaks(sim, sc.interval_ns)
        deliveries: dict[str, list] = {}
        for host in hosts:
            log = deliveries[host.name] = []
            host.nic.add_ingress_hook(
                lambda pkt, now, log=log: log.append(
                    (now, pkt.flow_id, pkt.seq, int(pkt.ecn))))
        # Looks are scheduled before any traffic, as a probe armed at set-up
        # is: at an exact tie they fire before the packet events.
        looks: list = []
        for time_ns, port_index, reset in sc.looks:
            queue = ports[port_index % len(ports)].queue
            sim.schedule_at(time_ns, look, (sim, queue, reset, looks))
        receiver = net.receiver
        for i, (src, offset, payload) in enumerate(sc.sends):
            sender = net.senders[src]
            sim.schedule_at(offset, sender.nic.send, (data_packet(
                src, sender.address, receiver.address, i * 10_000,
                payload),))
        for i, (dst, offset, payload) in enumerate(sc.replies):
            sim.schedule_at(offset, receiver.nic.send, (data_packet(
                100 + dst, receiver.address, net.senders[dst].address,
                i * 10_000, payload),))
        sim.run(until_ns=HORIZON_NS)
        assert sim.pending_events == 0
        return {
            "deliveries": deliveries,
            "looks": looks,
            "ports": {port.name: (stats_tuple(port.queue.stats),
                                  port.queue.len_packets,
                                  port.queue.len_bytes,
                                  port.link.bytes_sent,
                                  port.link.packets_sent,
                                  dict(port.queue.interval_peaks()))
                      for port in ports},
            # Link counters are plain attributes: reading the backlog (or
            # a queue's stats, above) first is what settles them.
            "nic_links": {host.name: (host.nic.egress_backlog_packets,
                                      host.nic.egress_link.bytes_sent,
                                      host.nic.egress_link.packets_sent)
                          for host in hosts},
            "forwarded": [switch.forwarded_packets for switch in switches],
        }


def assert_same(fast: dict, legacy: dict) -> None:
    for key in legacy:
        assert fast[key] == legacy[key], key


TIE = Scenario(n_senders=2, ecn_threshold=1, capacity=1333,
               interval_ns=units.usec(1.0),
               sends=((0, 0, 1000), (1, 0, 1000)), replies=(), looks=())


class TestDumbbellDifferential:
    @given(scenarios())
    @example(TIE)
    # The busy tie: the second packet reaches the trunk at the exact
    # instant the first one's 84 ns transmission ends, and queues.
    @example(Scenario(2, 1, 1333, units.usec(1.0),
                      ((0, 0, 1000), (1, 84, 1000), (1, 84, 0)), (), ()))
    # Two-packet queues: drops on both directions, a look on the grid.
    @example(Scenario(8, 1, 2, units.msec(1.0),
                      tuple((i, 0, 1460) for i in range(8)) * 3,
                      tuple((i % 8, 0, 0) for i in range(12)),
                      ((10_000 + 1200, 8, True), (16_200, 9, False))))
    @settings(deadline=None)
    def test_fast_paths_equal_legacy_pump(self, sc: Scenario):
        assert_same(run_dumbbell(sc, fast=True),
                    run_dumbbell(sc, fast=False))

    def test_same_instant_arrivals_on_an_idle_port(self):
        """The tie repro: two senders each put one segment on the wire at
        t=0, so both reach the idle 100 G trunk port at the same instant.
        The first starts serializing inside its own arrival event; the
        second must find the queue empty — no CE mark at K=1, watermark 1.
        """
        for fast in (False, True):
            out = run_dumbbell(TIE, fast)
            stats, *_ = out["ports"]["torA.p2"]
            stats = dict(zip(QueueStats.__slots__, stats))
            assert stats["marked_packets"] == 0, fast
            assert stats["max_len_packets"] == 1, fast
            ecns = [ecn for *_, ecn in out["deliveries"]["receiver"]]
            assert ecns == [1, 1], fast  # both still ECT


def run_single_port(arrivals, ecn_threshold, capacity, interval_ns,
                    looks, fast: bool) -> dict:
    """One switch port on a 10 G link, fed directly (the batched path:
    nothing promises a sole feeder, so it cannot compose)."""
    with egress_mode(fast):
        sim = Simulator()
        switch = Switch(sim, name="sw")
        link = Link(sim, units.gbps(10.0), units.usec(5.0))
        delivered: list = []

        class Sink:
            def receive(self, pkt) -> None:
                delivered.append((sim.now, pkt.seq, int(pkt.ecn)))

        link.connect(Sink())
        queue = DropTailQueue(capacity_packets=capacity,
                              ecn_threshold_packets=ecn_threshold,
                              name="q")
        port = switch.attach_port(link, queue)
        switch.set_default_route(port)
        queue.start_interval_peaks(sim, interval_ns)
        seen: list = []
        for time_ns, _, reset in looks:
            sim.schedule_at(time_ns, look, (sim, queue, reset, seen))
        for i, (offset, payload) in enumerate(arrivals):
            sim.schedule_at(offset, switch.receive,
                            (data_packet(0, 0, 1, i, payload),))
        sim.run(until_ns=HORIZON_NS)
        return {"delivered": delivered, "looks": seen,
                "stats": stats_tuple(queue.stats),
                "len": (queue.len_packets, queue.len_bytes),
                "link": (link.bytes_sent, link.packets_sent),
                "peaks": dict(queue.interval_peaks()),
                "forwarded": switch.forwarded_packets}


class TestBatchedPortDifferential:
    @given(arrivals=st.lists(st.tuples(offsets,
                                       st.sampled_from(PAYLOADS)),
                             min_size=1, max_size=40),
           ecn_threshold=st.sampled_from((1, 2, 3, 65)),
           capacity=st.sampled_from((2, 4, 1333)),
           interval_ns=st.sampled_from((units.usec(1.0), units.msec(1.0))),
           looks=st.lists(st.tuples(
               st.one_of(offsets, st.integers(min_value=0,
                                              max_value=40_000)),
               st.just(0), st.booleans()), max_size=6))
    @settings(deadline=None)
    def test_batched_port_equals_legacy_pump(self, arrivals, ecn_threshold,
                                             capacity, interval_ns, looks):
        args = (arrivals, ecn_threshold, capacity, interval_ns, looks)
        assert_same(run_single_port(*args, fast=True),
                    run_single_port(*args, fast=False))
