"""Topology builders.

:func:`build_dumbbell` constructs the paper's Section 4 environment:

    N senders --(10 Gbps)--> ToR-A --(100 Gbps)--> ToR-B --(10 Gbps)--> receiver

Incast congestion occurs at ToR-B's downlink to the receiver, so that port's
queue is exposed as :attr:`Dumbbell.bottleneck_queue` (the series Figures 5
and 6 plot). Every switch port uses the same queue configuration: capacity
1333 packets (2 MB at 1500-byte MTU) and an ECN marking threshold of 65
packets, both overridable.

Propagation delay per link defaults to 5 us; with three hops each way the
base round-trip time is 30 us, the paper's figure for modern datacenters.

:func:`build_rack` extends the dumbbell with *several* receivers on the
same destination ToR, each with its own sender group. With a shared buffer
pool, simultaneous bursts to different receivers contend for the same
switch memory — the rack-level contention that Sections 3.4 and 4.1.1
blame for production losses at flow counts the private-queue model
absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import units
from repro.netsim.buffers import SharedBufferPool
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.queues import DropTailQueue
from repro.netsim.switch import Switch
from repro.simcore.kernel import Simulator


@dataclass
class DumbbellConfig:
    """Parameters of the dumbbell topology (defaults = the paper's setup)."""

    n_senders: int = 100
    host_rate_bps: float = units.gbps(10.0)
    trunk_rate_bps: float = units.gbps(100.0)
    link_prop_delay_ns: int = units.usec(5.0)
    queue_capacity_packets: int = 1333
    ecn_threshold_packets: Optional[int] = 65
    shared_buffer_bytes: Optional[int] = None
    shared_buffer_alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.n_senders <= 0:
            raise ValueError("n_senders must be positive")

    @property
    def base_rtt_ns(self) -> int:
        """Propagation-only round-trip time between a sender and the
        receiver (three hops each way)."""
        return 6 * self.link_prop_delay_ns

    @property
    def bdp_bytes(self) -> int:
        """Bandwidth-delay product of the bottleneck (receiver downlink)."""
        return units.bdp_bytes(self.host_rate_bps, self.base_rtt_ns)


@dataclass
class Dumbbell:
    """A built dumbbell topology."""

    sim: Simulator
    config: DumbbellConfig
    senders: list[Host]
    receiver: Host
    tor_senders: Switch
    tor_receiver: Switch
    bottleneck_queue: DropTailQueue
    trunk_queue: DropTailQueue
    pools: list[SharedBufferPool] = field(default_factory=list)

    def settle(self) -> None:
        """Fold every record a composed port has booked that virtual time
        has passed. Any read of its counters folds the same records
        first, so the counters read the same; a run settles once it is
        over, and keeps none of its records."""
        self.tor_senders.settle()
        self.tor_receiver.settle()


def _make_queue(cfg: DumbbellConfig, pool: Optional[SharedBufferPool],
                name: str) -> DropTailQueue:
    return DropTailQueue(capacity_packets=cfg.queue_capacity_packets,
                         ecn_threshold_packets=cfg.ecn_threshold_packets,
                         pool=pool, name=name)


@dataclass
class RackConfig:
    """Parameters of the multi-receiver rack topology."""

    n_receivers: int = 2
    senders_per_receiver: int = 100
    host_rate_bps: float = units.gbps(10.0)
    trunk_rate_bps: float = units.gbps(100.0)
    link_prop_delay_ns: int = units.usec(5.0)
    queue_capacity_packets: int = 1333
    ecn_threshold_packets: Optional[int] = 65
    shared_buffer_bytes: Optional[int] = 2_000_000
    shared_buffer_alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.n_receivers <= 0 or self.senders_per_receiver <= 0:
            raise ValueError("receiver/sender counts must be positive")


@dataclass
class Rack:
    """A built multi-receiver rack."""

    sim: Simulator
    config: RackConfig
    receivers: list[Host]
    sender_groups: list[list[Host]]
    tor_senders: Switch
    tor_receivers: Switch
    receiver_queues: list[DropTailQueue]
    pool: Optional[SharedBufferPool]


def build_rack(sim: Simulator, config: Optional[RackConfig] = None) -> Rack:
    """Build a rack: one sender ToR, one receiver ToR hosting several
    receivers whose downlink queues may share buffer memory."""
    cfg = config or RackConfig()
    tor_a = Switch(sim, name="rack.torA")
    tor_b = Switch(sim, name="rack.torB")
    pool: Optional[SharedBufferPool] = None
    if cfg.shared_buffer_bytes is not None:
        pool = SharedBufferPool(cfg.shared_buffer_bytes,
                                cfg.shared_buffer_alpha)

    def make_queue(name: str, shared: bool) -> DropTailQueue:
        return DropTailQueue(
            capacity_packets=cfg.queue_capacity_packets,
            ecn_threshold_packets=cfg.ecn_threshold_packets,
            pool=pool if shared else None, name=name)

    sender_groups: list[list[Host]] = []
    for group in range(cfg.n_receivers):
        hosts = [Host(sim, name=f"rack.g{group}.sender{i}")
                 for i in range(cfg.senders_per_receiver)]
        for host in hosts:
            uplink = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                          name=f"{host.name}->torA")
            uplink.connect(tor_a)
            host.nic.connect(uplink)
            downlink = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                            name=f"torA->{host.name}")
            downlink.connect(host.nic)
            port = tor_a.attach_port(
                downlink, make_queue(f"torA->{host.name}", shared=False))
            tor_a.add_route(host.address, port)
        sender_groups.append(hosts)

    trunk_ab = Link(sim, cfg.trunk_rate_bps, cfg.link_prop_delay_ns,
                    name="rack.torA->torB")
    trunk_ab.connect(tor_b)
    trunk_port_a = tor_a.attach_port(
        trunk_ab, make_queue("rack.torA->torB", shared=False))
    tor_a.set_default_route(trunk_port_a)

    trunk_ba = Link(sim, cfg.trunk_rate_bps, cfg.link_prop_delay_ns,
                    name="rack.torB->torA")
    trunk_ba.connect(tor_a)
    trunk_port_b = tor_b.attach_port(
        trunk_ba, make_queue("rack.torB->torA", shared=False))
    tor_b.set_default_route(trunk_port_b)

    receivers: list[Host] = []
    receiver_queues: list[DropTailQueue] = []
    for group in range(cfg.n_receivers):
        receiver = Host(sim, name=f"rack.receiver{group}")
        down = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                    name=f"torB->{receiver.name}")
        down.connect(receiver.nic)
        # Receiver downlinks are the contended ports: they draw from the
        # shared pool (when configured).
        queue = make_queue(f"torB->{receiver.name}", shared=True)
        port = tor_b.attach_port(down, queue)
        tor_b.add_route(receiver.address, port)
        up = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                  name=f"{receiver.name}->torB")
        up.connect(tor_b)
        receiver.nic.connect(up)
        receivers.append(receiver)
        receiver_queues.append(queue)

    # Chain-handoff declarations (see build_dumbbell): each trunk queue is
    # fed only by host NICs whose access links share one propagation
    # delay — sender uplinks feed the A->B trunk (data), receiver uplinks
    # feed the B->A trunk (ACKs).
    for hosts in sender_groups:
        for host in hosts:
            host.nic.compose_chain_into(trunk_port_a)
    for receiver in receivers:
        receiver.nic.compose_chain_into(trunk_port_b)

    return Rack(sim=sim, config=cfg, receivers=receivers,
                sender_groups=sender_groups, tor_senders=tor_a,
                tor_receivers=tor_b, receiver_queues=receiver_queues,
                pool=pool)


def build_dumbbell(sim: Simulator,
                   config: Optional[DumbbellConfig] = None) -> Dumbbell:
    """Build the paper's dumbbell and wire up all forwarding state.

    Returns a :class:`Dumbbell`; callers then create TCP connections between
    ``senders[i]`` and ``receiver`` and attach applications.
    """
    cfg = config or DumbbellConfig()
    tor_a = Switch(sim, name="torA")
    tor_b = Switch(sim, name="torB")

    pools: list[SharedBufferPool] = []
    pool_a: Optional[SharedBufferPool] = None
    pool_b: Optional[SharedBufferPool] = None
    if cfg.shared_buffer_bytes is not None:
        pool_a = SharedBufferPool(cfg.shared_buffer_bytes,
                                  cfg.shared_buffer_alpha)
        pool_b = SharedBufferPool(cfg.shared_buffer_bytes,
                                  cfg.shared_buffer_alpha)
        pools = [pool_a, pool_b]

    senders = [Host(sim, name=f"sender{i}") for i in range(cfg.n_senders)]
    receiver = Host(sim, name="receiver")
    sender_downlink_ports = []

    # Sender access links: host -> ToR-A, and the reverse port for ACKs.
    for sender in senders:
        uplink = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                      name=f"{sender.name}->torA")
        uplink.connect(tor_a)
        sender.nic.connect(uplink)

        # The downlink and its queue share one name (one string).
        down_name = f"torA->{sender.name}"
        downlink = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                        name=down_name)
        downlink.connect(sender.nic)
        port = tor_a.attach_port(
            downlink, _make_queue(cfg, pool_a, down_name))
        tor_a.add_route(sender.address, port)
        sender_downlink_ports.append(port)

    # Trunk: ToR-A <-> ToR-B.
    trunk_ab = Link(sim, cfg.trunk_rate_bps, cfg.link_prop_delay_ns,
                    name="torA->torB")
    trunk_ab.connect(tor_b)
    trunk_queue = _make_queue(cfg, pool_a, "torA->torB")
    trunk_port_a = tor_a.attach_port(trunk_ab, trunk_queue)
    tor_a.set_default_route(trunk_port_a)

    trunk_ba = Link(sim, cfg.trunk_rate_bps, cfg.link_prop_delay_ns,
                    name="torB->torA")
    trunk_ba.connect(tor_a)
    trunk_port_b = tor_b.attach_port(
        trunk_ba, _make_queue(cfg, pool_b, "torB->torA"))
    tor_b.set_default_route(trunk_port_b)

    # Receiver access: ToR-B -> receiver is the incast bottleneck.
    recv_down = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                     name="torB->receiver")
    recv_down.connect(receiver.nic)
    bottleneck_queue = _make_queue(cfg, pool_b, "torB->receiver")
    recv_port = tor_b.attach_port(recv_down, bottleneck_queue)
    tor_b.add_route(receiver.address, recv_port)

    recv_up = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                   name="receiver->torB")
    recv_up.connect(tor_b)
    receiver.nic.connect(recv_up)

    # Sole-feeder declarations (licence for the composed egress fast path,
    # see repro.netsim.switch): hosts only exchange traffic with the
    # receiver, so everything entering the receiver-downlink queue came off
    # the A->B trunk, and everything entering a sender-downlink queue (the
    # ACK return path) came off the B->A trunk.
    trunk_port_a.compose_route(receiver.address, recv_port)
    for sender, port in zip(senders, sender_downlink_ports):
        trunk_port_b.compose_route(sender.address, port)
    # All sender access links share one propagation delay, so the order in
    # which their NIC chain events fire *is* the order their packets reach
    # ToR-A: each chain may hand its packet straight into the trunk port's
    # composed virtual queue instead of scheduling the switch-delivery
    # event. The receiver only ever sends toward the senders (ACKs, and a
    # coordinator's requests), all of which take ToR-B's default route, so
    # its chain hands each packet to the reverse trunk the same way, and
    # the rest of the path (trunk -> sender downlink) composes into a
    # single delivery event.
    for sender in senders:
        sender.nic.compose_chain_into(trunk_port_a)
    receiver.nic.compose_chain_into(trunk_port_b)

    return Dumbbell(sim=sim, config=cfg, senders=senders, receiver=receiver,
                    tor_senders=tor_a, tor_receiver=tor_b,
                    bottleneck_queue=bottleneck_queue,
                    trunk_queue=trunk_queue, pools=pools)
