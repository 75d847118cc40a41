"""The packet-level Millisampler record: a host NIC's interval book, read
as the Section 3 :class:`~repro.measurement.records.HostTrace`."""

import hashlib

import numpy as np
import pytest

from repro import units
from repro.measurement.records import TraceMeta
from repro.netsim.topology import DumbbellConfig, build_dumbbell
from repro.simcore.kernel import Simulator
from repro.simcore.random import RngHub
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from repro.tcp.cca.dctcp import Dctcp
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.incast import IncastConfig, IncastWorkload
from tests.conftest import mini_dumbbell

META = TraceMeta(service="sim-incast", host_id=0)


def recorded(sim, host):
    """A recorder booking ``host``'s NIC, attached before any traffic."""
    recorder = TelemetryRecorder(sim)
    recorder.attach_host(host)
    return recorder


def host_trace(recorder, host, line_rate_bps, meta=META):
    capture = recorder.export()
    recorder.detach()
    return capture.host_trace(host.name, line_rate_bps, meta)


def run_transfer(sim, net, sizes, tcp_config=None):
    cfg = tcp_config or TcpConfig()
    conns = []
    for host, size in zip(net.senders, sizes):
        sender, receiver = open_connection(sim, cfg, Dctcp(cfg), host,
                                           net.receiver)
        sender.send(size)
        conns.append((sender, receiver))
    sim.run(until_ns=units.sec(2))
    return conns


def receiver_trace(sim, net, sizes):
    recorder = recorded(sim, net.receiver)
    conns = run_transfer(sim, net, sizes)
    return conns, host_trace(recorder, net.receiver,
                             net.config.host_rate_bps)


class TestSampling:
    def test_counts_match_nic(self, sim):
        net = mini_dumbbell(sim, n_senders=2)
        _, trace = receiver_trace(sim, net, [50_000, 70_000])
        # All data payload + headers arrives at the receiver NIC; the trace
        # ignores nothing since ACKs leave (not arrive at) the receiver.
        assert trace.ingress_bytes.sum() == net.receiver.nic.bytes_received

    def test_flow_counting(self, sim):
        net = mini_dumbbell(sim, n_senders=3)
        _, trace = receiver_trace(sim, net, [30_000, 30_000, 30_000])
        assert trace.active_flows.max() == 3

    def test_retransmits_tagged(self, sim):
        net = mini_dumbbell(sim, n_senders=4, queue_capacity_packets=3,
                            ecn_threshold_packets=None)
        conns, trace = receiver_trace(sim, net, [200_000] * 4)
        total_rtx_sent = sum(s.stats.retransmitted_packets
                             for s, _ in conns)
        assert total_rtx_sent > 0
        assert trace.retransmit_bytes.sum() > 0

    def test_ce_marks_counted(self, sim):
        net = mini_dumbbell(sim, n_senders=2, ecn_threshold_packets=0)
        _, trace = receiver_trace(sim, net, [50_000, 50_000])
        assert trace.marked_bytes.sum() > 0
        assert (trace.marked_bytes <= trace.ingress_bytes).all()

    def test_meta_passthrough(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        meta = TraceMeta(service="x", host_id=9, snapshot_index=2)
        recorder = recorded(sim, net.receiver)
        run_transfer(sim, net, [10_000])
        trace = host_trace(recorder, net.receiver, 1e9, meta)
        assert trace.meta == meta
        assert trace.line_rate_bps == 1e9

    def test_rejects_bad_interval(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        with pytest.raises(ValueError):
            net.receiver.nic.start_interval_counts(0)

    def test_interval_is_the_books(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        recorder = TelemetryRecorder(sim, interval_ns=units.usec(250.0))
        recorder.attach_host(net.receiver)
        run_transfer(sim, net, [10_000])
        trace = host_trace(recorder, net.receiver, 1e9)
        assert trace.interval_ns == units.usec(250.0)


def incast_trace(n_senders: int, horizon_s: float, **dumbbell):
    """The receiver of a four-burst cyclic incast (2 ms bursts, 3 ms gaps,
    62.5 kB per flow and burst), booked from t=0."""
    sim = Simulator()
    net = build_dumbbell(sim, DumbbellConfig(n_senders=n_senders,
                                             **dumbbell))
    recorder = recorded(sim, net.receiver)
    tcp = TcpConfig()
    conns = [open_connection(sim, tcp, Dctcp(tcp), host, net.receiver)
             for host in net.senders]
    workload = IncastWorkload(
        sim, conns,
        IncastConfig(n_bursts=4, burst_duration_ns=units.msec(2.0),
                     inter_burst_gap_ns=units.msec(3.0)),
        RngHub(0).stream("jitter"), queue=net.bottleneck_queue,
        demand_bytes_per_flow=62_500)
    workload.start()
    sim.run(until_ns=units.sec(horizon_s))
    assert workload.done
    return host_trace(recorder, net.receiver, net.config.host_rate_bps)


#: sha256 over the int64 bytes of ingress, active flows, marked and
#: retransmitted bytes as the receiver's ingress-only tap exported them
#: (intervals from the first packet's through the last one's). The lossy
#: two carry 315,000 and 729,000 retransmitted bytes.
TAP_EXPORT_PINS = {
    "40_flows": (
        dict(n_senders=40, horizon_s=5),
        "21dc8c4d9100b1398948e06428b70356372eeeb3e23c2d738db0db9bbfee339f"),
    "100_flows_cap200_k30": (
        dict(n_senders=100, horizon_s=60, queue_capacity_packets=200,
             ecn_threshold_packets=30),
        "af21d27c2218cba3bed51a939cdfbe98f521380c11de305988c4f4c53286c98d"),
    "300_flows_cap400_k65": (
        dict(n_senders=300, horizon_s=60, queue_capacity_packets=400,
             ecn_threshold_packets=65),
        "cb70f3930c74c44f5d65c0059d9c4bcb93c561dae4e81304ce7cd7f5247b9900"),
}


@pytest.mark.parametrize("case", sorted(TAP_EXPORT_PINS))
def test_the_book_is_the_ingress_taps_record(case):
    """At an incast receiver without delayed ACKs, counting flows and
    retransmitted bytes in both directions changes nothing: the NIC book
    gives the ingress tap's four columns byte for byte."""
    kwargs, pin = TAP_EXPORT_PINS[case]
    trace = incast_trace(**kwargs)
    digest = hashlib.sha256()
    for column in (trace.ingress_bytes, trace.active_flows,
                   trace.marked_bytes, trace.retransmit_bytes):
        assert column.dtype == np.int64
        digest.update(column.tobytes())
    assert digest.hexdigest() == pin
