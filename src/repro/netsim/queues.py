"""Egress queues: tail-drop FIFO with threshold ECN marking.

This is the queue whose length Figures 5 and 6 plot. Behaviour matches the
paper's configuration of the NS3 model:

- fixed capacity in packets (1333 packets = 2 MB at 1500-byte MTU) and/or
  bytes; a packet that would exceed capacity is tail-dropped;
- instantaneous ECN marking: a packet that arrives while the queue holds at
  least ``ecn_threshold_packets`` packets is CE-marked at enqueue (DCTCP-style
  marking with K packets);
- optional admission through a
  :class:`~repro.netsim.buffers.SharedBufferPool`, so shared-buffer
  contention can shrink the effective capacity.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from repro.netsim.buffers import SharedBufferPool
from repro.netsim.packet import Packet
from repro.simcore.kernel import Simulator

QueueWatcher = Callable[[str, "DropTailQueue", Packet], None]
"""Observer called as ``watcher(event, queue, packet)`` where ``event`` is
``"enqueue"``, ``"drop"`` or ``"dequeue"``. Enqueue watchers see the queue
*after* the packet was appended (so ``queue.len_packets`` is the depth the
packet produced), and a CE-marked packet is visible as such.

A watcher needs a callback at every exact enqueue and drain instant, so a
watched queue is served by the switch's legacy per-packet pump (see
:mod:`repro.netsim.switch`). Mitigation schemes that read packets at the
bottleneck pay that; per-interval peak occupancy does not need a watcher —
see :meth:`DropTailQueue.start_interval_peaks`."""


_NO_FIFO = ()
"""A queue's FIFO before its first offer."""


class QueueStats:
    """Counters accumulated by a queue over its lifetime."""

    __slots__ = ("enqueued_packets", "enqueued_bytes", "dropped_packets",
                 "dropped_bytes", "marked_packets", "marked_bytes",
                 "dequeued_packets", "dequeued_bytes", "max_len_packets",
                 "max_len_bytes")

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.marked_packets = 0
        self.marked_bytes = 0
        self.dequeued_packets = 0
        self.dequeued_bytes = 0
        self.max_len_packets = 0
        self.max_len_bytes = 0

    def reset_watermark(self) -> None:
        """Clear the high-watermark fields (the per-minute reset the paper's
        switches apply to their occupancy counters)."""
        self.max_len_packets = 0
        self.max_len_bytes = 0


class DropTailQueue:
    """FIFO queue with tail drop and threshold ECN marking.

    Attributes:
        capacity_packets: Maximum queue length in packets.
        capacity_bytes: Maximum queue length in bytes (``None`` = unlimited).
        ecn_threshold_packets: Queue length at or above which arriving
            ECN-capable packets are CE-marked (``None`` disables marking).
        pool: Optional shared-buffer admission controller.
    """

    _next_queue_id = 0
    # Per-interval peak occupancy while recording (start_interval_peaks).
    _peak_clock: Optional[Simulator] = None
    _peaks: Mapping[int, int] = MappingProxyType({})

    def __init__(self, capacity_packets: Optional[int] = None,
                 capacity_bytes: Optional[int] = None,
                 ecn_threshold_packets: Optional[int] = None,
                 pool: Optional[SharedBufferPool] = None,
                 name: str = "queue"):
        if capacity_packets is not None and capacity_packets <= 0:
            raise ValueError("capacity_packets must be positive")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if ecn_threshold_packets is not None and ecn_threshold_packets < 0:
            raise ValueError("ecn_threshold_packets must be >= 0")
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_packets = ecn_threshold_packets
        self.pool = pool
        self.name = name
        self.queue_id = DropTailQueue._next_queue_id
        DropTailQueue._next_queue_id += 1
        # The queued packets: a deque from the first offer on, the shared
        # empty tuple before it and for good on a queue a composed egress
        # port books (which counts its depth in _composed_len instead).
        self._fifo: deque[Packet] | tuple = ()
        self._len_bytes = 0
        # Depth of a queue a composed egress port books, whose FIFO stays
        # empty (see len_packets).
        self._composed_len = 0
        self._watchers: tuple[QueueWatcher, ...] = ()  # copy-on-write
        # Installed by a composed egress port (netsim.switch): a callable
        # that folds in every arrival and drain it has booked that virtual
        # time has passed, so every observation below sees the same state
        # the legacy per-packet events would have left.
        self._settle: Optional[Callable[[], None]] = None
        self._stats = QueueStats()
        # Per-interval peak occupancy, booked at enqueue by whichever of
        # the two drain implementations serves this queue (see
        # start_interval_peaks). Interval 0 = not recording.
        self._peak_interval_ns = 0

    @property
    def stats(self) -> QueueStats:
        """Lifetime counters, settled up to the current virtual time.

        Reading through this property first folds in whatever a composed
        egress port has booked but not yet applied, so mid-run samplers
        (e.g. the occupancy watermark probe) see exactly the counters the
        legacy per-packet drain events would have produced. Internal fast
        paths use ``_stats`` directly after settling themselves.
        """
        if self._settle is not None:
            self._settle()
        return self._stats

    def __len__(self) -> int:
        return self.len_packets

    # --- observation -----------------------------------------------------

    def add_watcher(self, watcher: QueueWatcher) -> QueueWatcher:
        """Observe every enqueue/drop/dequeue (per-packet tap); returns
        ``watcher``.

        A watched queue is drained by the legacy per-packet pump, which is
        why a watcher must attach before the first packet: once the
        composed drain has engaged there are no per-packet events left to
        call it from.
        """
        if self._settle is not None:
            raise RuntimeError(
                f"{self.name}: cannot attach a watcher after the composed "
                f"egress path has engaged; attach watchers before the "
                f"first packet is enqueued")
        self._watchers += (watcher,)
        return watcher

    def start_interval_peaks(self, sim: Simulator,
                             interval_ns: int) -> None:
        """Start booking, per ``interval_ns``-long interval of ``sim``'s
        clock (aligned to t=0), the deepest occupancy any enqueue produced
        — the depth *after* the packet was appended, what an enqueue
        watcher would read from ``len_packets``.

        The queue books this itself at enqueue, on the legacy pump and
        on the composed path alike, so observing it does not change how
        the queue is simulated. May be switched on mid-run: enqueues older
        than now are settled first and stay unrecorded.
        """
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        if self._peak_interval_ns:
            raise RuntimeError(
                f"{self.name}: interval peaks are already being recorded")
        if self._settle is not None:
            self._settle()
        self._peak_clock = sim
        self._peak_interval_ns = int(interval_ns)
        self._peaks = {}

    def interval_peaks(self) -> Mapping[int, int]:
        """Peak occupancy by interval index, settled up to the current
        virtual time; intervals with no enqueue are absent. This is the
        live mapping the queue keeps writing (an empty read-only one while
        not recording): copy it to keep a snapshot."""
        if self._settle is not None:
            self._settle()
        return self._peaks

    def stop_interval_peaks(self) -> Mapping[int, int]:
        """Stop recording and return what was recorded (settled up to the
        current virtual time); the queue keeps no trace of it."""
        peaks = self.interval_peaks()
        self._peak_interval_ns = 0
        self._peak_clock = None
        self._peaks = DropTailQueue._peaks
        return peaks

    @property
    def len_packets(self) -> int:
        """Current queue length in packets."""
        if self._settle is not None:
            self._settle()
            return self._composed_len
        return len(self._fifo)

    @property
    def len_bytes(self) -> int:
        """Current queue length in bytes."""
        if self._settle is not None:
            self._settle()
        return self._len_bytes

    def _would_overflow(self, packet: Packet) -> bool:
        if (self.capacity_packets is not None
                and len(self._fifo) + 1 > self.capacity_packets):
            return True
        if (self.capacity_bytes is not None
                and self._len_bytes + packet.size_bytes > self.capacity_bytes):
            return True
        return False

    def offer(self, packet: Packet) -> bool:
        """Try to enqueue ``packet``.

        Returns ``False`` (and counts a drop) if the queue is at capacity or
        the shared buffer pool rejects the bytes. On success the packet may
        be CE-marked per the ECN threshold.
        """
        if self._settle is not None:
            self._settle()
        fifo = self._fifo
        if fifo is _NO_FIFO:
            fifo = self._fifo = deque()
        stats = self._stats
        size = packet.size_bytes
        if self._would_overflow(packet) or not self._pool_admit(packet):
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            if self._watchers:
                for watcher in self._watchers:
                    watcher("drop", self, packet)
            return False
        threshold = self.ecn_threshold_packets
        if (threshold is not None and len(fifo) >= threshold
                and packet.ecn != 0):  # ecn_capable, inlined
            packet.mark_ce()
            stats.marked_packets += 1
            stats.marked_bytes += size
        fifo.append(packet)
        depth_bytes = self._len_bytes + size
        self._len_bytes = depth_bytes
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        depth = len(fifo)
        if depth > stats.max_len_packets:
            stats.max_len_packets = depth
        if depth_bytes > stats.max_len_bytes:
            stats.max_len_bytes = depth_bytes
        interval = self._peak_interval_ns
        if interval:
            idx = self._peak_clock._now // interval
            if depth > self._peaks.get(idx, 0):
                self._peaks[idx] = depth
        if self._watchers:
            for watcher in self._watchers:
                watcher("enqueue", self, packet)
        return True

    def _pool_admit(self, packet: Packet) -> bool:
        if self.pool is None:
            return True
        return self.pool.try_reserve(self.queue_id, self._len_bytes,
                                     packet.size_bytes)

    def pop(self) -> Optional[Packet]:
        """Dequeue the head packet, or ``None`` if empty."""
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        stats = self._stats
        size = packet.size_bytes
        self._len_bytes -= size
        stats.dequeued_packets += 1
        stats.dequeued_bytes += size
        if self.pool is not None:
            self.pool.release(self.queue_id, size)
        if self._watchers:
            for watcher in self._watchers:
                watcher("dequeue", self, packet)
        return packet

    def __repr__(self) -> str:
        return (f"DropTailQueue({self.name}, len={self.len_packets}p/"
                f"{self._len_bytes}B, cap={self.capacity_packets}p, "
                f"ecn@{self.ecn_threshold_packets}p)")
