"""Three-tier leaf-spine topology.

The paper's measurement environment (Section 2) is a three-layer
datacenter: hosts connect to ToR (leaf) switches, which connect upward to
a spine layer. The Section 4 diagnosis deliberately collapses this to a
dumbbell, but cross-rack experiments (and any reader wanting to place the
dumbbell in context) need the full shape:

    hosts --(host_rate)--> leaf --(uplink_rate)--> spines --> leaf --> hosts

Forwarding is destination-based and deterministic: a leaf sends remote
traffic to the spine chosen by a seeded per-``(source leaf, destination)``
ECMP hash, so a given connection always takes one path and packet
reordering cannot occur. The hash draws from :class:`repro.simcore.random`
streams keyed by *fabric-local* host ranks — never from the process-global
host address counter — so the path map is a pure function of
``(LeafSpineConfig, ecmp_seed)``: identical in every process, whatever
simulations ran before (the same class of bug as the PR 1 rack-contention
fix, where seeding from a global address made results depend on process
history). Every port uses the paper's queue configuration.

The incast bottleneck for a many-to-one pattern is the destination leaf's
downlink to the receiving host — the same port the dumbbell isolates —
which :meth:`LeafSpine.downlink_queue` exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import units
from repro.simcore.random import RngHub

if TYPE_CHECKING:
    from repro.netsim.host import Host
    from repro.netsim.queues import DropTailQueue
    from repro.netsim.switch import Switch
    from repro.simcore.kernel import Simulator


@dataclass
class LeafSpineConfig:
    """Parameters of the leaf-spine fabric (paper-like defaults)."""

    n_racks: int = 4
    hosts_per_rack: int = 8
    n_spines: int = 2
    host_rate_bps: float = units.gbps(10.0)
    uplink_rate_bps: float = units.gbps(100.0)
    link_prop_delay_ns: int = units.usec(5.0)
    queue_capacity_packets: int = 1333
    ecn_threshold_packets: Optional[int] = 65
    ecmp_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_racks <= 0 or self.hosts_per_rack <= 0 \
                or self.n_spines <= 0:
            raise ValueError("rack/host/spine counts must be positive")


@dataclass
class LeafSpine:
    """A built leaf-spine fabric."""

    sim: Simulator
    config: LeafSpineConfig
    racks: list[list[Host]]
    leaves: list[Switch]
    spines: list[Switch]
    host_downlink_queues: dict[int, DropTailQueue]
    ecmp_paths: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def hosts(self) -> list[Host]:
        """All hosts, rack by rack."""
        return [host for rack in self.racks for host in rack]

    def rack_of(self, host: Host) -> int:
        """Index of the rack containing ``host``."""
        for index, rack in enumerate(self.racks):
            if host in rack:
                return index
        raise ValueError(f"{host} is not part of this fabric")

    def downlink_queue(self, host: Host) -> DropTailQueue:
        """The leaf egress queue feeding ``host`` — the incast bottleneck
        when ``host`` is a many-to-one receiver."""
        return self.host_downlink_queues[host.address]


def build_leaf_spine(sim: Simulator,
                     config: Optional[LeafSpineConfig] = None) -> LeafSpine:
    """Build the fabric and install deterministic destination routing."""
    # The fabric's parts load with the first fabric built: the fluid
    # backend reads LeafSpineConfig's rates and never builds one.
    from repro.netsim.host import Host
    from repro.netsim.link import Link
    from repro.netsim.queues import DropTailQueue
    from repro.netsim.switch import Switch

    cfg = config or LeafSpineConfig()

    def make_queue(name: str) -> DropTailQueue:
        return DropTailQueue(
            capacity_packets=cfg.queue_capacity_packets,
            ecn_threshold_packets=cfg.ecn_threshold_packets, name=name)

    spines = [Switch(sim, name=f"spine{s}") for s in range(cfg.n_spines)]
    leaves: list[Switch] = []
    racks: list[list[Host]] = []
    downlink_queues: dict[int, DropTailQueue] = {}

    for rack_index in range(cfg.n_racks):
        leaf = Switch(sim, name=f"leaf{rack_index}")
        rack_hosts = []
        for host_index in range(cfg.hosts_per_rack):
            host = Host(sim, name=f"r{rack_index}h{host_index}")
            uplink = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                          name=f"{host.name}->{leaf.name}")
            uplink.connect(leaf)
            host.nic.connect(uplink)
            downlink = Link(sim, cfg.host_rate_bps, cfg.link_prop_delay_ns,
                            name=f"{leaf.name}->{host.name}")
            downlink.connect(host.nic)
            queue = make_queue(f"{leaf.name}->{host.name}")
            port = leaf.attach_port(downlink, queue)
            leaf.add_route(host.address, port)
            downlink_queues[host.address] = queue
            rack_hosts.append(host)
        leaves.append(leaf)
        racks.append(rack_hosts)

    # Leaf <-> spine fabric links.
    spine_ports_by_leaf: list[list] = []
    for rack_index, leaf in enumerate(leaves):
        ports = []
        for spine_index, spine in enumerate(spines):
            up = Link(sim, cfg.uplink_rate_bps, cfg.link_prop_delay_ns,
                      name=f"{leaf.name}->{spine.name}")
            up.connect(spine)
            up_port = leaf.attach_port(
                up, make_queue(f"{leaf.name}->{spine.name}"))
            ports.append(up_port)

            down = Link(sim, cfg.uplink_rate_bps, cfg.link_prop_delay_ns,
                        name=f"{spine.name}->{leaf.name}")
            down.connect(leaf)
            spine_port = spine.attach_port(
                down, make_queue(f"{spine.name}->{leaf.name}"))
            # Spine routes every host of this rack via its leaf.
            for host in racks[rack_index]:
                spine.add_route(host.address, spine_port)
        spine_ports_by_leaf.append(ports)

    # Leaf routing for remote destinations: per-(source leaf, destination)
    # spine choice. The draw is keyed on fabric-local ranks through a
    # seeded RngHub stream, never on Host.address — the address counter is
    # process-global, so hashing it would make path selection depend on
    # how many simulations ran earlier in this process.
    hub = RngHub(cfg.ecmp_seed)
    ecmp_paths: dict[tuple[int, int], int] = {}
    for rack_index, leaf in enumerate(leaves):
        for dst_rack, rack_hosts in enumerate(racks):
            for host_index, host in enumerate(rack_hosts):
                dst_rank = dst_rack * cfg.hosts_per_rack + host_index
                if dst_rack == rack_index:
                    continue
                rng = hub.stream(f"ecmp/{rack_index}/{dst_rank}")
                spine_index = int(rng.integers(cfg.n_spines))
                ecmp_paths[(rack_index, dst_rank)] = spine_index
                leaf.add_route(host.address,
                               spine_ports_by_leaf[rack_index][spine_index])

    return LeafSpine(sim=sim, config=cfg, racks=racks, leaves=leaves,
                     spines=spines, host_downlink_queues=downlink_queues,
                     ecmp_paths=ecmp_paths)
