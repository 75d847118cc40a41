"""A data segment pays only for its own work, and a flow only for what
its run measured.

Like ``tests/test_import_budget.py`` for start-up, this budgets the packet
fast path per data segment: the Python calls ``repro.simcore``,
``repro.netsim`` and ``repro.tcp`` make while one DCTCP incast burst
crosses the dumbbell, counted by cProfile (the same run makes the same
calls, so the count is exact, unlike a timing). A change that goes back to
re-deciding per packet what is fixed per connection or per port fails
here instead of showing up as a slower benchmark.

The bytecode budget does the same for the kernel's run loop, counted
exactly by ``tests.opcounts``: what ``Simulator.run`` executes per heap
pop, so bookkeeping that creeps back into the hottest loop fails here.

The byte budget does the same for per-flow state: the bytes a lossy
1000-flow incast still holds per flow when ``run_incast_sim`` returns,
measured by ``tests.footprint`` in a fresh interpreter (tracemalloc
counts allocations, so the same run holds the same bytes).

The other two cases pin the per-connection decisions themselves: a CCA
that does not override ``CongestionControl.pacing_interval_ns`` /
``on_rtt_sample`` is never asked, and one that does still is, bare or
under a wrapper such as ``CwndGuardrail``.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path

import pytest

from repro.experiments import environment
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.tcp.cca.base import CongestionControl
from repro.tcp.cca.swiftlike import SwiftLike
from repro.units import msec
from tests.footprint import measure_fresh
from tests.opcounts import count

PACKAGE = Path(environment.__file__).resolve().parents[1]
HOT_LAYERS = ("simcore", "netsim", "tcp")

#: Calls per data segment on BURST: 41.1 when every ACK re-decided the
#: connection's fixed choices and every composed hop was a call of its
#: own, 21.0 while the receiver NIC had a fully-virtual egress of its
#: own, 20.0 since it hands its ACKs off through its chain like every
#: sender; the budget leaves about 10 % slack over that.
CALLS_PER_SEGMENT = 22.0

BURST = dict(n_flows=20, n_bursts=1, seed=0)

#: ``Simulator.run`` bytecodes per heap pop on RUN_BURST (Python 3.11.7):
#: 84.8 while the loop recycled fire-and-forget entries through a free
#: list and kept a live-event count, 43.9 since it keeps neither; the
#: budget leaves room for one more test in the loop, not for a pool.
RUN_BYTECODES_PER_POP = 52.0

RUN_BURST = dict(n_flows=20, n_bursts=1, seed=0,
                 burst_duration_ns=msec(2.0))

#: Bytes per flow a 1000-flow, one-burst incast (drops and RTOs) holds
#: when run_incast_sim returns (``python -m tests.footprint``, Python
#: 3.11.7): 11,508 when each sender had a dict for its attributes, each
#: NIC and queue its empty deques and each reverse port its booked
#: records; 4,860 since. The budget leaves about 13 % slack over that.
#: The netsim and tcp layers, where attribute layout matters, hold a
#: little less on Python 3.12.1 than on 3.11.7 (see DESIGN.md).
BYTES_PER_FLOW = 5_500


def calls_per_segment(config: dict) -> float:
    """Python calls in the hot layers per data segment the senders
    offered (every one enters, or is dropped at, the trunk queue)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        net = run_incast_sim(IncastSimConfig(**config)).network
    finally:
        profiler.disable()
    roots = tuple(str(PACKAGE / layer) for layer in HOT_LAYERS)
    calls = sum(nc for (filename, _, _), (_, nc, *_)
                in pstats.Stats(profiler).stats.items()
                if filename.startswith(roots))
    trunk = net.trunk_queue.stats
    return calls / (trunk.enqueued_packets + trunk.dropped_packets)


def test_a_segment_stays_within_its_call_budget():
    assert calls_per_segment(BURST) <= CALLS_PER_SEGMENT


def test_the_kernel_stays_within_its_bytecode_budget():
    counts = count(RUN_BURST, run_only=True)
    assert counts["heap_pops"] > 1_000
    assert counts["run_per_pop"] <= RUN_BYTECODES_PER_POP


def test_a_flow_stays_within_its_byte_budget():
    footprint = measure_fresh()
    assert footprint["drops"] > 0 and footprint["rtos"] > 0
    # Folded at the horizon: no composed port keeps a record of work
    # virtual time has passed.
    assert footprint["unfolded_records"] == 0
    assert footprint["bytes_per_flow"] <= BYTES_PER_FLOW


def count_calls(monkeypatch, owner: type, name: str) -> list:
    """Count calls of ``owner.name`` (the class attribute) in a list."""
    calls = []
    original = getattr(owner, name)

    def counted(self, *args):
        result = original(self, *args)
        calls.append(result)
        return result

    monkeypatch.setattr(owner, name, counted)
    return calls


def senders_of(monkeypatch) -> list:
    """The senders ``run_incast_sim`` opens from now on."""
    senders = []
    open_connection = environment.open_connection

    def recording(*args, **kwargs):
        pair = open_connection(*args, **kwargs)
        senders.append(pair[0])
        return pair

    monkeypatch.setattr(environment, "open_connection", recording)
    return senders


@pytest.mark.parametrize("cca", ["dctcp", "reno"])
def test_window_ccas_are_never_asked_to_pace_or_sample(monkeypatch, cca):
    paced = count_calls(monkeypatch, CongestionControl, "pacing_interval_ns")
    sampled = count_calls(monkeypatch, CongestionControl, "on_rtt_sample")
    senders = senders_of(monkeypatch)
    run_incast_sim(IncastSimConfig(cca=cca, **BURST))
    assert sum(s.stats.acks_received for s in senders) > 1_000
    assert sum(s.rtt.samples for s in senders) > 0
    assert paced == [] and sampled == []


@pytest.mark.parametrize("scheme", ["dctcp", "guardrail"],
                         ids=["bare", "guardrail"])
def test_swiftlike_still_paces_and_gets_every_rtt_sample(monkeypatch,
                                                         scheme):
    paced = count_calls(monkeypatch, SwiftLike, "pacing_interval_ns")
    sampled = count_calls(monkeypatch, SwiftLike, "on_rtt_sample")
    senders = senders_of(monkeypatch)
    run_incast_sim(IncastSimConfig(cca="swiftlike", n_flows=40, n_bursts=2,
                                   seed=3, scheme=scheme))
    assert any(interval is not None for interval in paced)
    assert len(sampled) == sum(s.rtt.samples for s in senders) > 0
