"""Same bytes through the packet stack: sha256 pins of small fixed incasts.

The egress differentials (``tests/test_egress_differential.py``) compare
the composed switch path against the legacy pump, so both sides share the
TCP endpoints and the kernel and neither can see a change there. These
pins can: each case runs ``run_incast_sim`` and hashes

- the receiver host's per-packet delivery log, ``(time, flow, seq, ecn,
  is_retransmit)`` for every non-ACK packet the receiver's NIC hands up,
  in delivery order;
- every ``SenderStats`` and ``ReceiverStats`` (connection order) and the
  ``QueueStats`` of every switch port;

and pins the run's ``events_processed`` beside them. Flow ids are
process-global counters, so the log names a flow by its connection index.
The cases cover each CCA, the guardrail wrapper, each mitigation scheme, a
lossy dumbbell (tail drops, fast retransmits, RTOs) and delayed ACKs with
SACK on the same lossy dumbbell; each runs on the composed fast path and on
the legacy reference pump (``switch.BATCHED_EGRESS_ENABLED = False``),
which must read the same pins.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import units
from repro.experiments import environment
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.netsim import switch
from repro.netsim.topology import DumbbellConfig
from repro.tcp.config import TcpConfig

_BASE = dict(n_flows=40, burst_duration_ns=units.msec(2.0), n_bursts=2,
             inter_burst_gap_ns=units.msec(1.0), seed=3)
_LOSSY = DumbbellConfig(queue_capacity_packets=30, ecn_threshold_packets=20)

CASES = {
    "dctcp": dict(_BASE),
    "reno": dict(_BASE, cca="reno"),
    "swiftlike": dict(_BASE, cca="swiftlike"),
    # The guardrail scheme's cap at 40 flows is 3375 B; a sender opens a
    # segment while in-flight is below its window, so that cap and the
    # 4380 B the pins were recorded with both allow 3 segments in flight.
    "dctcp_guardrail": dict(_BASE, scheme="guardrail"),
    "ictcp": dict(_BASE, scheme="ictcp"),
    "pulser": dict(_BASE, scheme="pulser"),
    "fec": dict(_BASE, scheme="fec"),
    "detect": dict(_BASE, scheme="detect"),
    "lossy": dict(_BASE, dumbbell=_LOSSY),
    "delack_sack": dict(_BASE, dumbbell=_LOSSY,
                        tcp=TcpConfig(delayed_ack=True, sack_enabled=True)),
}

# Recorded at commit 193a860, before the per-segment call-chain work:
# case -> (deliveries, delivery-log sha256, stats sha256, events_processed).
PINNED = {
    "dctcp": (
        3_440,
        "7485b128225d4f92ea745d4becbed30da0e81075a80b827665744ee96b8c8433",
        "51373797d99d17cee00706475acfdd7e959a388fb9a76825c530d130398ac97e",
        41_467),
    "reno": (
        3_440,
        "3572a9ad74f3e9817cb373361ca1692749f4594f801b4aa6719469385ee308f6",
        "de6dcd3f730ad1a10d63c893d179e7277f20668229a4be46020fb8fc067db12e",
        41_467),
    "swiftlike": (
        3_440,
        "f00cc89d2d37c74012a28d9887a2cd520e53cf0c2459b68c16b2d5a7758da1a1",
        "765d9bd34d906d4b84b56ffbc807f7fa4b1f4e26ce36e5520a0803632d4d6ca3",
        41_708),
    "dctcp_guardrail": (
        3_440,
        "f42902382a177719d30a66c7e96f4b4e468bc7ead1dacc149475e5da05b8fe53",
        "3b32f268ae0ab24ecd73c7afcbc41d6c8e810241eb16607cc6f9c26e0f6738dc",
        41_468),
    # Re-pinned when the scheme's throttle began starting from a time-zero
    # event over every connection: the first burst's senders now open at
    # an even share of the budget, not the whole of it (first-burst peak
    # 436 -> 343 packets), and the start event is one more event.
    "ictcp": (
        3_440,
        "3a1f9a2d52c8b8df0728d77c571b18cf16668f24e72618dc2e961acd0d7a3d7e",
        "d83095acd2155d6b7b790b6b6dc464f8fb846503ccf58d29c68e613b0e30687c",
        41_520),
    "pulser": (
        3_440,
        "de4bd7c98d8e0fcb6355b1dc03205a9b42e883aecbe2d5eea091dfdf2e0e7f54",
        "1a5bb827e3e3cc4bdb4c6eff0db4f782f126afe452280cab0789152118564146",
        41_467),
    "fec": (
        3_920,
        "6621bc7fb4f7d36aa21d78cf43fe9356db23e3f624ed18a18803dc7464ba3ded",
        "72e3e6c11f4ef894034888c1acc74a92071098737fe69ff3b8fbcdadc724ba1a",
        44_358),
    "detect": (
        3_440,
        "7485b128225d4f92ea745d4becbed30da0e81075a80b827665744ee96b8c8433",
        "51373797d99d17cee00706475acfdd7e959a388fb9a76825c530d130398ac97e",
        41_571),
    "lossy": (
        3_443,
        "ff63aed9bfee764ce50cc2673852a94f6a8485e32bc1a722625062cb237b4a80",
        "f1e7fb9a0a683a6f93e70a6728772c34044e48a4aa3f5ec1168594a67b85c8b5",
        64_129),
    "delack_sack": (
        3_550,
        "048ffb062ec4bc59fa1a4e0c7bfd4424f060f464c42ac707669d1ffdb0264a23",
        "b55cea8576a776082b3ecfb5dfcdf07d67c59df16a7c31bcfd3613095805b838",
        60_833),
}


def _slots(stats) -> tuple:
    return tuple(getattr(stats, name) for name in type(stats).__slots__)


def observe(monkeypatch, config: dict) -> tuple[int, str, str, int]:
    """Run one case; returns ``(deliveries, log sha256, stats sha256,
    events_processed)``."""
    connections = []
    log = []

    def open_connection(*args, **kwargs):
        pair = environment_open(*args, **kwargs)
        connections.append(pair)
        return pair

    def build_dumbbell(sim, cfg):
        net = environment_build(sim, cfg)
        net.receiver.nic.add_ingress_hook(
            lambda p, now: p.is_ack or log.append(
                (now, p.flow_id, p.seq, int(p.ecn), p.is_retransmit)))
        return net

    environment_open = environment.open_connection
    environment_build = environment.build_dumbbell
    monkeypatch.setattr(environment, "open_connection", open_connection)
    monkeypatch.setattr(environment, "build_dumbbell", build_dumbbell)
    net = run_incast_sim(IncastSimConfig(**config)).network
    index = {sender.flow_id: i for i, (sender, _) in enumerate(connections)}
    rows = [(t, index[flow], seq, ecn, rtx) for t, flow, seq, ecn, rtx in log]
    stats = ([(_slots(s.stats), _slots(r.stats)) for s, r in connections]
             + [(port.name, _slots(port.queue.stats))
                for tor in (net.tor_senders, net.tor_receiver)
                for port in tor.ports])
    return (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest(),
            hashlib.sha256(repr(stats).encode()).hexdigest(),
            net.sim.events_processed)


@pytest.mark.parametrize("batched", [True, False],
                         ids=["composed", "reference"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_packet_run_is_pinned(monkeypatch, name, batched):
    monkeypatch.setattr(switch, "BATCHED_EGRESS_ENABLED", batched)
    assert observe(monkeypatch, CASES[name]) == PINNED[name]


def test_the_cases_exercise_what_they_are_named_for():
    """The lossy cases take drops, fast retransmits and RTOs; SACK
    recovery runs under delayed ACKs; every run marks."""
    for name, config in CASES.items():
        bursts = run_incast_sim(IncastSimConfig(**config)).burst_results
        assert sum(b.marked_packets for b in bursts) > 0, name
        if name in ("lossy", "delack_sack"):
            assert sum(b.drops for b in bursts) > 0, name
            assert sum(b.fast_retransmits for b in bursts) > 0, name
            assert sum(b.rto_events for b in bursts) > 0, name
