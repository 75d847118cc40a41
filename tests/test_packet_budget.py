"""A data segment pays only for its own work.

Like ``tests/test_import_budget.py`` for start-up, this budgets the packet
fast path per data segment: the Python calls ``repro.simcore``,
``repro.netsim`` and ``repro.tcp`` make while one DCTCP incast burst
crosses the dumbbell, counted by cProfile (the same run makes the same
calls, so the count is exact, unlike a timing). A change that goes back to
re-deciding per packet what is fixed per connection or per port fails
here instead of showing up as a slower benchmark.

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

PACKAGE = Path(environment.__file__).resolve().parents[1]
HOT_LAYERS = ("simcore", "netsim", "tcp")

#: Calls per data segment on BURST: 41.1 when every ACK re-decided the
#: connection's fixed choices and every composed hop was a call of its
#: own, 21.0 since; the budget leaves about 10 % slack over that.
CALLS_PER_SEGMENT = 23.0

BURST = dict(n_flows=20, n_bursts=1, seed=0)


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
