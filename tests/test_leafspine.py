"""Tests for the leaf-spine fabric."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import units
from repro.netsim.leafspine import LeafSpineConfig, build_leaf_spine
from repro.simcore.kernel import Simulator
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection


def fabric(sim, **kwargs):
    return build_leaf_spine(sim, LeafSpineConfig(**kwargs))


class TestShape:
    def test_counts(self, sim):
        fab = fabric(sim, n_racks=3, hosts_per_rack=4, n_spines=2)
        assert len(fab.racks) == 3
        assert len(fab.hosts) == 12
        assert len(fab.leaves) == 3
        assert len(fab.spines) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LeafSpineConfig(n_racks=0)
        with pytest.raises(ValueError):
            LeafSpineConfig(n_spines=0)

    def test_downlink_queue_lookup(self, sim):
        fab = fabric(sim)
        host = fab.racks[0][0]
        queue = fab.downlink_queue(host)
        assert host.name in queue.name


class TestForwarding:
    def test_intra_rack_delivery(self, sim):
        fab = fabric(sim, n_racks=2, hosts_per_rack=4)
        tcp = TcpConfig()
        src, dst = fab.racks[0][0], fab.racks[0][1]
        sender, receiver = open_connection(sim, tcp, Dctcp(tcp), src, dst)
        sender.send(50_000)
        sim.run(until_ns=units.sec(1))
        assert receiver.delivered_bytes == 50_000
        # Intra-rack traffic never crosses a spine.
        assert all(s.forwarded_packets == 0 for s in fab.spines)

    def test_cross_rack_delivery_uses_spine(self, sim):
        fab = fabric(sim, n_racks=2, hosts_per_rack=4)
        tcp = TcpConfig()
        src, dst = fab.racks[0][0], fab.racks[1][0]
        sender, receiver = open_connection(sim, tcp, Dctcp(tcp), src, dst)
        sender.send(50_000)
        sim.run(until_ns=units.sec(1))
        assert receiver.delivered_bytes == 50_000
        assert sum(s.forwarded_packets for s in fab.spines) > 0

    def test_deterministic_spine_choice(self, sim):
        """A destination's traffic always crosses the same spine, so a
        connection cannot be reordered by multipathing."""
        fab = fabric(sim, n_racks=2, hosts_per_rack=2, n_spines=2)
        tcp = TcpConfig()
        src, dst = fab.racks[0][0], fab.racks[1][1]
        sender, receiver = open_connection(sim, tcp, Dctcp(tcp), src, dst)
        sender.send(200_000)
        sim.run(until_ns=units.sec(1))
        assert receiver.delivered_bytes == 200_000
        used = [s for s in fab.spines if s.forwarded_packets > 0]
        # Data crosses one spine; the reverse ACK path may use the other.
        # dst is rack 1's second host: fabric rank 1 * 2 + 1 = 3.
        data_spine = fab.spines[fab.ecmp_paths[(0, 3)]]
        assert data_spine in used

    def test_cross_rack_rtt_longer_than_intra(self, sim):
        fab = fabric(sim, n_racks=2, hosts_per_rack=2)
        tcp = TcpConfig()
        intra_s, _ = open_connection(sim, tcp, Dctcp(tcp),
                                     fab.racks[0][0], fab.racks[0][1])
        cross_s, _ = open_connection(sim, tcp, Dctcp(tcp),
                                     fab.racks[1][0], fab.racks[0][1])
        intra_s.send(20_000)
        cross_s.send(20_000)
        sim.run(until_ns=units.sec(1))
        assert intra_s.rtt.min_rtt_ns < cross_s.rtt.min_rtt_ns


PATH_MAP_SCRIPT = """
import json, sys
# Perturb process-global state BEFORE building the fabric: allocate hosts
# in a throwaway sim so the global Host address counter starts far from
# zero. A path map derived from addresses would shift; a fabric-local one
# must not.
from repro.netsim.host import Host
from repro.netsim.leafspine import LeafSpineConfig, build_leaf_spine
from repro.simcore.kernel import Simulator
burn = Simulator()
for _ in range(int(sys.argv[1])):
    Host(burn, name="burn")
fab = build_leaf_spine(Simulator(), LeafSpineConfig(
    n_racks=3, hosts_per_rack=4, n_spines=4, ecmp_seed=int(sys.argv[2])))
print(json.dumps({f"{k[0]}:{k[1]}": v
                  for k, v in sorted(fab.ecmp_paths.items())}))
"""


class TestEcmpDeterminism:
    def test_path_map_is_pure_function_of_config(self, sim):
        fab_a = fabric(sim, n_racks=3, hosts_per_rack=4, n_spines=4)
        fab_b = fabric(Simulator(), n_racks=3, hosts_per_rack=4, n_spines=4)
        assert fab_a.ecmp_paths == fab_b.ecmp_paths
        assert fab_a.ecmp_paths  # non-trivial map

    def test_seed_changes_paths(self, sim):
        base = fabric(sim, n_racks=4, hosts_per_rack=8, n_spines=4)
        reseeded = fabric(Simulator(), n_racks=4, hosts_per_rack=8,
                          n_spines=4, ecmp_seed=7)
        assert base.ecmp_paths != reseeded.ecmp_paths

    def test_local_destinations_have_no_spine_path(self, sim):
        fab = fabric(sim, n_racks=2, hosts_per_rack=2, n_spines=2)
        assert (0, 0) not in fab.ecmp_paths
        assert (0, 2) in fab.ecmp_paths

    @pytest.mark.parametrize("seed", [0, 11])
    def test_identical_paths_across_fresh_processes(self, seed):
        """Two fresh interpreters — one with its global host-address
        counter deliberately perturbed — must derive identical per-flow
        paths for the same seed (the PR 1 class of process-history bug)."""
        src = Path(__file__).resolve().parents[1] / "src"

        def run(burn_hosts):
            proc = subprocess.run(
                [sys.executable, "-c", PATH_MAP_SCRIPT,
                 str(burn_hosts), str(seed)],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
            return json.loads(proc.stdout)

        assert run(0) == run(57)


class TestCrossRackIncast:
    def test_incast_bottlenecks_at_destination_leaf_downlink(self, sim):
        """Senders spread over three racks converging on one receiver
        congest exactly the dumbbell's bottleneck: the destination leaf's
        host downlink."""
        fab = fabric(sim, n_racks=4, hosts_per_rack=6)
        tcp = TcpConfig()
        receiver_host = fab.racks[0][0]
        senders = [host for rack in fab.racks[1:] for host in rack]
        conns = [open_connection(sim, tcp, Dctcp(tcp), host, receiver_host)
                 for host in senders]
        for sender, _ in conns:
            sender.send(60_000)
        sim.run(until_ns=units.sec(2))
        assert all(r.delivered_bytes == 60_000 for _, r in conns)
        bottleneck = fab.downlink_queue(receiver_host)
        assert bottleneck.stats.max_len_packets > 18
        assert bottleneck.stats.marked_packets > 0
        # Spine queues stay shallow: the fabric is not the constraint.
        for spine in fab.spines:
            for port in spine.ports:
                assert port.queue.stats.max_len_packets \
                    < bottleneck.stats.max_len_packets
