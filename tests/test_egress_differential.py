"""Differential test: composed egress against the legacy pump.

``netsim.switch.BATCHED_EGRESS_ENABLED = False`` forces every port onto the
per-packet pump — two kernel events per packet, no closed forms, nothing
credited — which makes it the reference the fast paths (composed switch
ports and chain-handoff NICs) must reproduce. Golden fixtures pin only
what the experiments happened to record; here Hypothesis draws small
dumbbell scenarios aimed at the places the closed forms can go
wrong (same-instant arrivals, arrivals at the exact instant a transmission
ends, marking thresholds and capacities of a few packets, observers
reading mid-run) and everything observable is compared:

- every packet delivery ``(time_ns, flow, seq, ecn)`` at every NIC,
- ``Switch.forwarded_packets`` (read *first*: nothing else has settled
  the ports yet), every port's full :class:`QueueStats` and link
  byte/packet counters,
- per-interval peak occupancy at 1 us and 1 ms,
- ``len_packets`` / ``len_bytes`` / ``stats`` read (and the watermark
  reset) at drawn instants during the run.

The rack and the leaf-spine fabric mix the two drains differently (rack:
composed trunks feeding pumped downlinks; leaf-spine: the NIC fast path
only, see ``tests/test_egress_paths.py``), so each gets one fixed TCP
incast compared the same way, plus ``events_processed``; so does one
partition/aggregate run, whose dumbbell receiver sends requests as well
as ACKs. Hypothesis also draws partition/aggregate queries (fan-in,
response bytes, query count, queue capacity), so NIC sends that an
application timer or a TCP event causes — requests after a think time,
responses after a service time, retransmissions — are diffed too.

CI runs this module a second time with ``--hypothesis-seed=0
--hypothesis-profile=thorough`` (see ``conftest.py``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import units
from repro.netsim import switch as switch_module
from repro.netsim.leafspine import LeafSpineConfig, build_leaf_spine
from repro.netsim.packet import data_packet
from repro.netsim.queues import DropTailQueue, QueueStats
from repro.netsim.topology import (DumbbellConfig, RackConfig,
                                   build_dumbbell, build_rack)
from repro.simcore.kernel import Simulator
from repro.simcore.random import RngHub
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from repro.workloads.partition_aggregate import (PartitionAggregateConfig,
                                                 PartitionAggregateWorkload)

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


def tap_deliveries(hosts) -> dict[str, list]:
    """Log every delivery as ``(time_ns, flow, seq, ecn)``, per host name."""
    deliveries: dict[str, list] = {}
    for host in hosts:
        log = deliveries[host.name] = []
        host.nic.add_ingress_hook(
            lambda pkt, now, log=log: log.append(
                (now, pkt.flow_id, pkt.seq, int(pkt.ecn))))
    return deliveries


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
        deliveries = tap_deliveries(hosts)
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
            # Read before anything below settles a port: a composed port
            # counts its arrivals when it folds them.
            "forwarded": [switch.forwarded_packets for switch in switches],
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
            # Read before any queue's stats were: the read itself must
            # settle the composed ports.
            assert out["forwarded"] == [2, 2], fast


def run_incast(build, fast: bool) -> dict:
    """A TCP incast on the fabric ``build(sim)`` returns as ``(switches,
    hosts, [(sender host, receiver host), ...])``: 30 kB per flow, all
    started at t=0, into 12-packet queues marking at 3."""
    with egress_mode(fast):
        sim = Simulator()
        switches, hosts, pairs = build(sim)
        ports = [port for switch in switches for port in switch.ports]
        for port in ports:
            port.queue.start_interval_peaks(sim, units.usec(10.0))
        deliveries = tap_deliveries(hosts)
        tcp = TcpConfig()
        conns = [open_connection(sim, tcp, Dctcp(tcp), src, dst, flow_id=i)
                 for i, (src, dst) in enumerate(pairs)]
        for sender, _ in conns:
            sender.send(30_000)
        sim.run(until_ns=units.sec(1.0))
        assert all(r.delivered_bytes == 30_000 for _, r in conns)
        return {
            "forwarded": [switch.forwarded_packets for switch in switches],
            "deliveries": deliveries,
            "ports": {port.name: (stats_tuple(port.queue.stats),
                                  dict(port.queue.interval_peaks()),
                                  port.link.bytes_sent,
                                  port.link.packets_sent)
                      for port in ports},
            "events": sim.events_processed,
        }


def rack_incast(sim: Simulator):
    rack = build_rack(sim, RackConfig(
        n_receivers=2, senders_per_receiver=6, shared_buffer_bytes=None,
        queue_capacity_packets=12, ecn_threshold_packets=3))
    hosts = [h for group in rack.sender_groups for h in group]
    pairs = [(host, receiver)
             for group, receiver in zip(rack.sender_groups, rack.receivers)
             for host in group]
    # One sender of each group also reaches the other group's receiver.
    pairs += [(rack.sender_groups[0][0], rack.receivers[1]),
              (rack.sender_groups[1][0], rack.receivers[0])]
    return ((rack.tor_senders, rack.tor_receivers),
            hosts + rack.receivers, pairs)


def leaf_spine_incast(sim: Simulator):
    fab = build_leaf_spine(sim, LeafSpineConfig(
        n_racks=3, hosts_per_rack=4, n_spines=2,
        queue_capacity_packets=12, ecn_threshold_packets=3))
    receiver = fab.racks[0][0]
    # Cross-rack senders through both spines, plus two rack-local ones.
    senders = fab.racks[1] + fab.racks[2] + fab.racks[0][1:3]
    return (fab.leaves + fab.spines, fab.hosts,
            [(host, receiver) for host in senders])


class TestFabricDifferential:
    @pytest.mark.parametrize("build", [rack_incast, leaf_spine_incast])
    def test_fixed_incast_equals_legacy_pump(self, build):
        fast = run_incast(build, fast=True)
        legacy = run_incast(build, fast=False)
        assert_same(fast, legacy)
        # The scenario reaches the rules worth diffing: marks and drops.
        stats = [dict(zip(QueueStats.__slots__, port[0]))
                 for port in legacy["ports"].values()]
        assert sum(s["marked_packets"] for s in stats) > 0
        assert sum(s["dropped_packets"] for s in stats) > 0


@dataclass(frozen=True)
class Queries:
    fan_in: int
    response_bytes: int
    n_queries: int
    capacity: int
    seed: int = 0


def run_partition_aggregate(q: Queries, fast: bool) -> dict:
    """The dumbbell receiver coordinates ``q``'s queries, so its NIC
    sends requests as well as ACKs."""
    with egress_mode(fast):
        sim = Simulator()
        net = build_dumbbell(sim, DumbbellConfig(
            n_senders=q.fan_in, queue_capacity_packets=q.capacity))
        deliveries = tap_deliveries(net.senders + [net.receiver])
        tcp = TcpConfig()
        workload = PartitionAggregateWorkload(
            sim, net, PartitionAggregateConfig(
                n_queries=q.n_queries, response_bytes=q.response_bytes),
            tcp, lambda: Dctcp(tcp), RngHub(q.seed).stream("pa"))
        workload.start()
        sim.run(until_ns=units.sec(30.0))
        assert workload.done
        ports = net.tor_senders.ports + net.tor_receiver.ports
        # Flow ids come from a process-wide counter: count from the run's
        # first, the request flow to worker 0.
        first = min(flow for log in deliveries.values()
                    for _, flow, _, _ in log)
        return {
            "qct": [r.qct_ns for r in workload.results],
            "deliveries": {host: [(now, flow - first, seq, ecn)
                                  for now, flow, seq, ecn in log]
                           for host, log in deliveries.items()},
            "ports": {port.name: (stats_tuple(port.queue.stats),
                                  port.link.bytes_sent,
                                  port.link.packets_sent)
                      for port in ports},
            "events": sim.events_processed,
        }


#: Ablation L's 256-worker point, three queries.
FAN_IN_256 = Queries(fan_in=256, response_bytes=2_000_000 // 256,
                     n_queries=3, capacity=1333)

query_sets = st.builds(
    Queries,
    # Small, or around ablation L's 256 workers, where the coordinator's
    # requests and ACKs crowd its NIC (the deleted fully-virtual egress
    # diverged from the pump at 248, 252 and 256, and not at 24 or 200).
    fan_in=st.one_of(st.integers(min_value=1, max_value=24),
                     st.integers(min_value=200, max_value=320)),
    # One byte, a segment and a bit, and enough to overflow 8 packets.
    response_bytes=st.sampled_from((1, 1_500, 6_500, 20_000)),
    n_queries=st.integers(min_value=1, max_value=3),
    capacity=st.sampled_from((8, 1333)),
    seed=st.integers(min_value=0, max_value=3))


class TestCoordinatorDifferential:
    def test_requests_and_acks_equal_legacy_pump(self):
        # The receiver NIC's fully-virtual egress, since deleted, put
        # this run's median QCT 57 ns off the pump's.
        fast = run_partition_aggregate(FAN_IN_256, fast=True)
        legacy = run_partition_aggregate(FAN_IN_256, fast=False)
        assert_same(fast, legacy)
        stats = dict(zip(QueueStats.__slots__,
                         legacy["ports"]["torB.p1"][0]))
        assert stats["dropped_packets"] > 0

    @given(query_sets)
    # A tenth of the profile's budget: 10 by default, 150 under
    # ``thorough``.
    @settings(max_examples=settings.default.max_examples // 10,
              deadline=None)
    def test_drawn_queries_equal_legacy_pump(self, q: Queries):
        assert_same(run_partition_aggregate(q, fast=True),
                    run_partition_aggregate(q, fast=False))
