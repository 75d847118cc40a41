"""Network impairment injection for the TCP robustness tests.

An :class:`Impairment` sits between a link and its sink and applies
seeded, reproducible faults to the packet stream:

- random drops with probability ``drop_prob`` (both directions of a TCP
  connection can be impaired independently);
- random extra latency uniform in ``[0, jitter_ns]``, with optional
  reordering (without reordering, delays are monotonically clamped so
  packet order is preserved, as in a FIFO path with variable service);
- deterministic drop patterns ("kill the nth packets") for reproducing
  specific loss scenarios in tests.

``tests/test_impair.py`` uses this to verify TCP reliability under
conditions the queue-overflow path cannot produce: ACK loss, tail loss
without successor packets, reordering-induced duplicate ACKs. No shipped
surface impairs a wire, so it lives beside its one consumer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.netsim.link import PacketSink
from repro.netsim.packet import Packet
from repro.simcore.kernel import Simulator


class Impairment:
    """A faulty wire segment in front of ``sink``.

    Args:
        sim: Simulator for delayed deliveries.
        sink: Downstream packet consumer.
        rng: Seeded generator driving the random faults.
        drop_prob: Per-packet drop probability.
        jitter_ns: Maximum extra delay added per packet.
        reorder: If false (default), delivery order is preserved even under
            jitter (delays are clamped to be non-decreasing in dispatch
            order); if true, jitter may reorder packets.
        drop_indices: Exact (0-based) packet indices to drop, applied in
            arrival order and independent of ``drop_prob``.
    """

    def __init__(self, sim: Simulator, sink: PacketSink,
                 rng: Optional[np.random.Generator] = None,
                 drop_prob: float = 0.0, jitter_ns: int = 0,
                 reorder: bool = False,
                 drop_indices: Optional[set[int]] = None):
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if jitter_ns < 0:
            raise ValueError("jitter must be >= 0")
        self._sim = sim
        self._sink = sink
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.drop_prob = drop_prob
        self.jitter_ns = jitter_ns
        self.reorder = reorder
        self.drop_indices = drop_indices or set()
        self._seen = 0
        self._last_delivery_ns = 0
        self.dropped = 0
        self.delivered = 0

    def receive(self, packet: Packet) -> None:
        """Accept a packet from the upstream link (PacketSink API)."""
        index = self._seen
        self._seen += 1
        if index in self.drop_indices:
            self.dropped += 1
            return
        if self.drop_prob > 0.0 and self._rng.random() < self.drop_prob:
            self.dropped += 1
            return
        delay = 0
        if self.jitter_ns > 0:
            delay = int(self._rng.integers(0, self.jitter_ns + 1))
        deliver_at = self._sim.now + delay
        if not self.reorder and deliver_at < self._last_delivery_ns:
            deliver_at = self._last_delivery_ns
        self._last_delivery_ns = deliver_at
        self.delivered += 1
        if deliver_at == self._sim.now:
            self._sink.receive(packet)
        else:
            self._sim.schedule_at(deliver_at, self._sink.receive, (packet,))

    def __repr__(self) -> str:
        return (f"Impairment(drop={self.drop_prob:g}, "
                f"jitter={self.jitter_ns}ns, dropped={self.dropped})")
