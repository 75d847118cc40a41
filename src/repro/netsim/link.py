"""Point-to-point links.

A :class:`Link` models serialization delay (packet size over link rate) plus
fixed propagation delay. Links are *pull-fed*: the owning port keeps the link
busy one packet at a time and is called back when the transmitter frees up,
which is how output-queued switch ports drain their queues.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro import units
from repro.netsim.packet import Packet
from repro.simcore.kernel import Simulator


_TX_TIMES: dict[float, dict[int, int]] = {}
"""Serialization time in ns by link rate, then by packet size."""


class PacketSink(Protocol):
    """Anything that can accept a delivered packet."""

    def receive(self, packet: Packet) -> None:
        """Accept ``packet`` at the current simulation time."""
        ...


class Link:
    """Unidirectional point-to-point link.

    Attributes:
        rate_bps: Link bandwidth in bits per second.
        prop_delay_ns: One-way propagation delay.
        name: Human-readable label used in traces and errors.
        busy: Whether a packet is currently being serialized. Read-only
            for callers; the link maintains it.
    """

    def __init__(self, sim: Simulator, rate_bps: float, prop_delay_ns: int,
                 name: str = "link"):
        if rate_bps <= 0:
            raise ValueError(f"{name}: rate must be positive, got {rate_bps}")
        if prop_delay_ns < 0:
            raise ValueError(
                f"{name}: propagation delay must be >= 0, got {prop_delay_ns}")
        self._sim = sim
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.name = name
        self._sink: Optional[PacketSink] = None
        self.busy = False
        self.bytes_sent = 0
        self.packets_sent = 0
        # Serialization times memoized by packet size: traffic uses only a
        # handful of distinct sizes (full MSS, pure ACK, one tail
        # segment), so a dict hit replaces the ceil-division arithmetic.
        # The times depend on the rate alone, so links of one rate share
        # one memo.
        self._tx_time_cache = _TX_TIMES.setdefault(rate_bps, {})

    def connect(self, sink: PacketSink) -> None:
        """Attach the receiving endpoint."""
        self._sink = sink

    @property
    def sink(self) -> Optional[PacketSink]:
        """The receiving endpoint, or ``None`` before :meth:`connect`."""
        return self._sink

    def tx_time_ns(self, packet: Packet) -> int:
        """Serialization delay for ``packet`` on this link."""
        size = packet.size_bytes
        tx = self._tx_time_cache.get(size)
        if tx is None:
            tx = units.tx_time_ns(size, self.rate_bps)
            self._tx_time_cache[size] = tx
        return tx

    def transmit(self, packet: Packet,
                 on_done: Optional[Callable[[], None]] = None) -> None:
        """Begin transmitting ``packet``.

        ``on_done`` fires when the transmitter frees up (end of
        serialization); the packet is delivered to the sink one propagation
        delay later. Raises if the link is already busy — the caller is
        responsible for serializing access (ports do this).
        """
        if self._sink is None:
            raise RuntimeError(f"{self.name}: transmit before connect()")
        if self.busy:
            raise RuntimeError(f"{self.name}: transmit while busy")
        self.busy = True
        tx = self.tx_time_ns(packet)
        self.bytes_sent += packet.size_bytes
        self.packets_sent += 1
        self._sim.schedule_fire(tx, self._tx_complete, (packet, on_done))

    def _tx_complete(self, packet: Packet,
                     on_done: Optional[Callable[[], None]]) -> None:
        self.busy = False
        # Deliver after propagation; the transmitter is already free, so the
        # on_done callback may start the next packet before this one lands.
        sink = self._sink
        assert sink is not None
        if self.prop_delay_ns == 0:
            sink.receive(packet)
        else:
            self._sim.schedule_fire(self.prop_delay_ns, sink.receive,
                                    (packet,))
        if on_done is not None:
            on_done()

    def __repr__(self) -> str:
        return (f"Link({self.name}, {units.bps_to_gbps(self.rate_bps):g} Gbps, "
                f"prop={self.prop_delay_ns} ns)")
