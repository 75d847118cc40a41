"""Oracles for what telemetry records, each from an independent source.

- **NIC-booked series vs a reference recorder.** The reference is the
  pair of per-packet closures a recorder once installed with
  ``HostNIC.add_ingress_hook`` / ``add_egress_hook``; on Hypothesis
  dumbbells lossy enough to retransmit, the series a NIC books itself
  must equal what those closures accumulate.
- **The lifecycle log vs protocol state.** Per flow: one ``open`` whose
  value is the receiver's sim-local address, one ``close`` per burst
  the receiver got in full, one ``alpha`` per DCTCP window the CCA
  completed, one ``rto`` per timeout the sender counted, each carrying
  the backoff multiplier. Counts are exact whether or not the log is
  capped.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.experiments.environment as environment
import repro.tcp.connection as connection
from repro import units
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.experiments.scenarios import (ElephantMiceGridConfig,
                                         run_elephant_mice)
from repro.netsim.packet import ECN
from repro.netsim.topology import DumbbellConfig, build_dumbbell
from repro.simcore.kernel import Simulator
from repro.simcore.random import RngHub
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from repro.telemetry import FLOW_CHANNELS, HostSeries, TelemetryRecorder

from tests.conftest import mini_dumbbell

RTO_MULTIPLIERS = {2.0, 4.0, 8.0, 16.0, 32.0, 64.0}


class ReferenceHost:
    """Per-packet hook closures on one NIC, as the recorder used to
    install them: sparse per-interval dicts, one per signal."""

    def __init__(self, nic, interval_ns: int) -> None:
        self.ingress: dict[int, int] = {}
        self.egress: dict[int, int] = {}
        self.marked: dict[int, int] = {}
        self.rtx: dict[int, int] = {}
        self.flows: dict[int, set] = {}

        def on_ingress(packet, now):
            idx = now // interval_ns
            size = packet.size_bytes
            self.ingress[idx] = self.ingress.get(idx, 0) + size
            if packet.ecn == ECN.CE:
                self.marked[idx] = self.marked.get(idx, 0) + size
            if packet.is_retransmit:
                self.rtx[idx] = self.rtx.get(idx, 0) + size
            self.flows.setdefault(idx, set()).add(packet.flow_id)

        def on_egress(packet, now):
            idx = now // interval_ns
            size = packet.size_bytes
            self.egress[idx] = self.egress.get(idx, 0) + size
            if packet.is_retransmit:
                self.rtx[idx] = self.rtx.get(idx, 0) + size
            self.flows.setdefault(idx, set()).add(packet.flow_id)

        nic.add_ingress_hook(on_ingress)
        nic.add_egress_hook(on_egress)

    def last_interval(self) -> int:
        return max(self.flows, default=-1)

    def series(self, n: int) -> dict[str, list[int]]:
        def dense(sparse):
            out = [0] * n
            for idx, value in sparse.items():
                out[idx] = value
            return out
        return {"ingress_bytes": dense(self.ingress),
                "egress_bytes": dense(self.egress),
                "flow_count": dense({i: len(s)
                                     for i, s in self.flows.items()}),
                "marked_bytes": dense(self.marked),
                "retransmit_bytes": dense(self.rtx)}


FLOW_BYTES = (1_460, 20_000, 80_000)


@st.composite
def lossy_dumbbells(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return dict(
        n_senders=n,
        capacity=draw(st.sampled_from((3, 6, 12, 1333))),
        ecn_threshold=draw(st.sampled_from((2, 65))),
        interval_ns=draw(st.sampled_from((units.usec(10.0),
                                          units.usec(100.0),
                                          units.msec(1.0)))),
        flows=tuple(draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1),
                      st.sampled_from(FLOW_BYTES),
                      st.integers(min_value=0, max_value=50_000)),
            min_size=1, max_size=8))),
        reverse=draw(st.sampled_from((0, 20_000))),
    )


LOSSY = dict(n_senders=6, capacity=3, ecn_threshold=2,
             interval_ns=units.usec(100.0),
             flows=tuple((i, 80_000, 0) for i in range(6)), reverse=20_000)


def run_booked_and_reference(sc: dict) -> tuple:
    """A TCP incast (plus, optionally, one flow back from the receiver)
    with every host observed twice: booked by its NIC for a recorder,
    and by reference closures on the same NIC's hooks."""
    sim = Simulator()
    net = build_dumbbell(sim, DumbbellConfig(
        n_senders=sc["n_senders"], ecn_threshold_packets=sc["ecn_threshold"],
        queue_capacity_packets=sc["capacity"]))
    hosts = net.senders + [net.receiver]
    recorder = TelemetryRecorder(sim, interval_ns=sc["interval_ns"])
    references = {}
    for host in hosts:
        recorder.attach_host(host)
        references[host.name] = ReferenceHost(host.nic, sc["interval_ns"])
    tcp = TcpConfig()
    pairs = [(net.senders[src], net.receiver, size, start)
             for src, size, start in sc["flows"]]
    if sc["reverse"]:
        pairs.append((net.receiver, net.senders[0], sc["reverse"], 0))
    for flow_id, (src, dst, size, start) in enumerate(pairs):
        sender, _ = open_connection(sim, tcp, Dctcp(tcp), src, dst,
                                    flow_id=flow_id)
        sim.schedule_at(start, sender.send, (size,))
    sim.run(until_ns=units.msec(600.0))
    return recorder.export(), references


def assert_booked_equals_reference(capture, references) -> None:
    n = capture.n_intervals
    assert n == 1 + max(ref.last_interval() for ref in references.values())
    for name, ref in references.items():
        booked = capture.hosts[name]
        expected = ref.series(n)
        for signal in HostSeries.SIGNALS:
            assert getattr(booked, signal).tolist() == expected[signal], \
                (name, signal)


class TestBookedSeriesEqualReference:
    @given(lossy_dumbbells())
    @settings(deadline=None)
    def test_booked_series_equal_hook_closures(self, sc):
        assert_booked_equals_reference(*run_booked_and_reference(sc))

    def test_the_lossy_example_retransmits_and_marks(self):
        capture, references = run_booked_and_reference(LOSSY)
        assert_booked_equals_reference(capture, references)
        receiver = capture.hosts["receiver"]
        assert receiver.retransmit_bytes.sum() > 0
        assert receiver.marked_bytes.sum() > 0
        assert receiver.egress_bytes.sum() > 0
        assert capture.hosts["sender0"].retransmit_bytes.sum() > 0


# --- the lifecycle log ----------------------------------------------------

@pytest.fixture
def opened(monkeypatch) -> list:
    """Every ``(sender, receiver)`` pair the run under test opens."""
    pairs: list = []
    original = connection.open_connection

    def spy(*args, **kwargs):
        pair = original(*args, **kwargs)
        pairs.append(pair)
        return pair

    monkeypatch.setattr(environment, "open_connection", spy)
    monkeypatch.setattr(connection, "open_connection", spy)
    return pairs


def innermost_cca(sender):
    cca = sender.cca
    while getattr(cca, "inner", None) is not None:
        cca = cca.inner
    return cca


def assert_log_matches_protocol_state(capture, flows: dict) -> None:
    """``flows`` maps each sim-local flow id to ``(sender, receiver
    address, completed bursts)``."""
    per_flow = Counter(zip(capture.event_flow_id, capture.event_kind))
    assert {flow for flow, _ in per_flow} == set(flows)
    opens = {}
    for flow, kind, value in zip(capture.event_flow_id, capture.event_kind,
                                 capture.event_value):
        if kind == "open":
            opens[flow] = value
        elif kind == "rto":
            assert value in RTO_MULTIPLIERS
        assert isinstance(value, float)
    for flow, (sender, receiver_address, bursts) in flows.items():
        assert per_flow[flow, "open"] == 1
        assert opens[flow] == float(receiver_address)
        assert per_flow[flow, "close"] == bursts
        assert per_flow[flow, "alpha"] == innermost_cca(sender) \
            .windows_completed
        assert per_flow[flow, "rto"] == sender.stats.rto_events
    assert capture.events_dropped == 0
    assert capture.event_counts == dict(Counter(capture.event_kind))


class TestLifecycleLog:
    @pytest.mark.parametrize("n_flows", [100, 1000])
    def test_dumbbell_incast(self, opened, n_flows):
        cfg = IncastSimConfig(n_flows=n_flows, n_bursts=2, seed=0,
                              telemetry=True)
        result = run_incast_sim(cfg)
        demand = cfg.demand_bytes_per_flow
        # Renumbered: flow i is connection i, the receiver is n_flows.
        assert_log_matches_protocol_state(result.telemetry, {
            i: (sender, n_flows, receiver.delivered_bytes // demand)
            for i, (sender, receiver) in enumerate(opened)})
        assert sum(receiver.delivered_bytes for _, receiver in opened) \
            == 2 * n_flows * demand
        if n_flows == 1000:
            # The lossy point times out, first at twice the base RTO.
            assert result.telemetry.event_counts["rto"] > 0
            assert 2.0 in result.telemetry.event_value

    def test_leafspine_mix_point(self, opened):
        cfg = ElephantMiceGridConfig(telemetry=True)
        result = run_elephant_mice(cfg)
        plan = {spec.flow_id: spec
                for spec in cfg.plan(RngHub(cfg.seed)).rows}
        # Fabric-local addresses are host ranks; flow ids are the plan's.
        assert_log_matches_protocol_state(result.telemetry, {
            sender.flow_id: (
                sender, plan[sender.flow_id].dst_rank,
                int(receiver.delivered_bytes
                    == plan[sender.flow_id].size_bytes))
            for sender, receiver in opened})
        assert len(opened) == len(plan)


class TestEventCap:
    def test_capped_log_keeps_the_first_events_and_exact_counts(self):
        sim = Simulator()
        net = mini_dumbbell(sim, n_senders=4)
        recorder = TelemetryRecorder(sim, event_cap=50)
        recorder.attach()
        reference: list = []
        for channel in FLOW_CHANNELS:
            sim.hooks.subscribe(
                channel, lambda flow_id, host, *rest, kind=channel:
                reference.append((kind.split(".")[1], flow_id)))
        tcp = TcpConfig()
        for i, sender_host in enumerate(net.senders):
            sender, _ = open_connection(sim, tcp, Dctcp(tcp), sender_host,
                                        net.receiver, flow_id=i)
            sender.send(300_000)
        sim.run(until_ns=units.sec(1.0))
        capture = recorder.export()

        assert len(reference) > 50
        assert list(zip(capture.event_kind, capture.event_flow_id)) == \
            reference[:50]
        first_emission = list(dict.fromkeys(kind for kind, _ in reference))
        assert list(capture.event_counts) == first_emission
        assert capture.event_counts == dict(
            Counter(kind for kind, _ in reference))
        # A kind first emitted past the cap is counted, not kept.
        assert set(capture.event_kind) < set(capture.event_counts)
        assert capture.events_dropped == len(reference) - 50
        report = capture.to_dict()
        assert report["n_events"] == len(reference)
        assert len(report["events"]) == 50
        assert sum(capture.event_counts.values()) == report["n_events"]
