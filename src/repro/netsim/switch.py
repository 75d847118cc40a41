"""Output-queued switch.

A :class:`Switch` owns one :class:`EgressPort` per attached link. Forwarding
is by a static destination-address table (sufficient for the dumbbell and any
tree topology the experiments use). An arriving packet is looked up and
offered to the egress port's queue; the port drains the queue onto its link
one packet at a time.

Ports have two drain implementations, chosen per port at first traffic:

- the **legacy per-packet pump**: ``DropTailQueue.offer`` the packet, pop
  one, ``Link.transmit`` it, and be called back at end-of-serialization —
  two kernel events per packet. It is the reference the composed path must
  reproduce, and the live path wherever that one cannot engage;
- the **composed path**: a FIFO queue in front of a work-conserving link
  has a drain schedule that is closed-form once arrivals are known in
  order (``start = max(arrival, busy_until)``, ``end = start + tx``,
  ``delivery = end + prop``). When the topology builder promises who feeds
  a port's queue — one upstream port (:meth:`EgressPort.compose_route`)
  or NIC chain events over links of one propagation delay
  (``HostNIC.compose_chain_into``, the one way a NIC feeds a composed
  port) — the feeder hands each packet over with its arrival time and
  the whole switch-fabric traversal collapses into a single delivery
  event at the far endpoint; the queue's arrivals,
  marks, drops, and drains are recorded as plain numbers (size, flags, the
  depth the packet produced — never the packet), credited to the
  simulator's event count at once so accounting matches the legacy path
  one-for-one, and folded into the queue's counters once virtual time has
  passed them.

The composed path engages only when behaviour is provably identical to the
legacy pump: a feeder promise, a plain :class:`~repro.netsim.link.Link`
with a positive propagation delay (so delivery is a separate event, as in
the legacy path), no :class:`~repro.netsim.buffers.SharedBufferPool`
(admission timing couples queues), no queue watchers (a watcher needs a
callback at every exact enqueue and drain instant), and no real
:meth:`EgressPort.enqueue` taken yet. Per-interval peak occupancy
(``DropTailQueue.start_interval_peaks``) is *not* a watcher: both
implementations book it from the depth and instant they already know at
enqueue. The admission rule (drop, CE mark, watermark, interval peak)
thus lives in two places, ``DropTailQueue.offer`` and
:meth:`EgressPort._virtual_enqueue`, the first the reference for the
second (``tests/test_egress_differential.py``).

**Idle-start rule.** A packet that reaches an *idle* transmitter starts
serializing inside its own arrival event (the legacy pump pops it before
``enqueue`` returns), so it counts for the high-watermark and the interval
peak at the depth it produced, but a later arrival at the same instant no
longer finds it in the queue — it is never part of the occupancy that
admission, marking, or another packet's depth sees. A packet that arrives
at the exact instant the previous transmission *ends* is different: the
legacy completion event for that instant fires after the arrival (it was
scheduled later), so the transmitter is still busy and the packet queues.

**Settling is fold-as-you-go.** Booked-but-unapplied work is applied
strictly-older-only (strict ``<`` against virtual now), which reproduces
the legacy observation order: a drain completing at time T was always the
last-scheduled event among same-T events — its completion was scheduled
one serialization time before T, later than any arrival or probe event,
which travel a propagation delay or more. A composed port folds its own
backlog in amortised batches from the per-packet path, as two independent
prefix folds (arrivals older than now, drain starts older than now — each
is a sum, and depth was fixed at admission, so they need no interleaving,
only a bisection and column sums); observers fold whatever is left. The
backlog therefore stays proportional to the packets in flight, whether or
not anybody ever reads the queue.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from heapq import heappush
from operator import itemgetter
from typing import Optional

from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue
from repro.simcore.kernel import Simulator

BATCHED_EGRESS_ENABLED = True
"""Test switch: ``False`` forces every port onto the legacy per-packet
pump, the reference run (the name predates the batched drain's removal)."""

_FOLD_SLACK = 64
"""A composed port folds its backlog when it exceeds twice what the
previous fold left behind plus this many records."""

_UNBOUNDED = sys.maxsize
"""A composed port's stand-in for an absent queue limit or threshold."""


def _unbounded(limit: Optional[int]) -> int:
    return _UNBOUNDED if limit is None else limit


_SIZE = itemgetter(1)  # of a (start, size) drain record


class EgressPort:
    """An egress queue bound to an outgoing link.

    The port pumps the queue whenever the link transmitter is idle; the link
    calls back at end-of-serialization so the next packet starts immediately,
    keeping the output link work-conserving. A composed port (see module
    docstring) is handed arrival times and drains in closed form instead.
    """

    def __init__(self, sim: Simulator, link: Link, queue: DropTailQueue,
                 name: str = "port"):
        self._sim = sim
        self.link = link
        self.queue = queue
        self.name = name
        self._pumped = False  # has taken a real enqueue (legacy pump)
        self._sink = None
        # Composition (this port as the upstream feeder):
        self._compose_routes: dict[int, "EgressPort"] = {}
        self._switch: Optional["Switch"] = None  # set by attach_port
        # Composition (this port as the composed downstream):
        self._composed: Optional[bool] = None
        # Propagation delay shared by every chain-handoff feeder (see
        # HostNIC.compose_chain_into): equal delays are what make
        # chain-firing order equal arrival order across feeders.
        self._vfeeder_prop: Optional[int] = None
        # Admission and link constants, cached by _engage_composed:
        self._vcap_pk = self._vcap_by = self._vthresh = _UNBOUNDED
        self._vidle_cap_by = _UNBOUNDED
        self._vidle_mark = False
        self._vtx: Optional[dict[int, int]] = None
        self._vprop = 0
        self._vbusy_until = -1
        # Occupancy at the latest admitted arrival (or fold) instant:
        self._vlen_pk = 0
        self._vlen_by = 0
        # Booked but not yet folded into the queue's counters, in time
        # order. One (start, size) record per packet that queued (an
        # idle-start packet's drain folds with its arrival record); those
        # from _vhead on had not started by the latest arrival, and make
        # up _vlen_*. One record per arrival: (arrival, size, marked
        # bytes, idle-start bytes, depth packets, depth bytes, dropped
        # bytes), 0 where a field does not apply, sizes 0 for a drop.
        self._vdrains: list[tuple[int, int]] = []
        self._vhead = 0
        self._varrivals: list[tuple[int, ...]] = []
        self._vfold_at = _FOLD_SLACK

    def compose_route(self, dst: int, downstream: "EgressPort") -> None:
        """Declare that every packet this port delivers toward host ``dst``
        is the *only* traffic entering ``downstream``'s queue.

        This is a topology-builder promise (e.g. the dumbbell's trunk port
        is the sole feeder of the receiver-downlink queue). It licenses the
        composed path; if traffic ever reaches the downstream port from
        anywhere else while composed, the downstream port raises rather
        than silently diverge. Only a composed upstream acts on it: a
        pumped port delivers through its link as if nothing was declared.
        """
        self._compose_routes[dst] = downstream

    def enqueue(self, packet: Packet) -> bool:
        """Offer ``packet`` to the port. Returns ``False`` on tail drop."""
        if self._composed:
            raise RuntimeError(
                f"{self.name}: real enqueue on a composed port — the "
                f"topology builder's sole-feeder promise was violated")
        self._pumped = True
        accepted = self.queue.offer(packet)
        if accepted:
            self._pump()
        return accepted

    # --- composed downstream -------------------------------------------

    def _engage_composed(self) -> bool:
        """Check (once) that this port can run as a composed downstream."""
        composed = self._composed
        if composed is None:
            link = self.link
            queue = self.queue
            composed = (BATCHED_EGRESS_ENABLED
                        and type(link) is Link and link.prop_delay_ns > 0
                        and link.sink is not None
                        and queue.pool is None and not queue._watchers
                        and not self._pumped)
            self._composed = composed
            if composed:
                self._sink = link.sink
                queue._settle = self._settle_composed
                # Admission parameters and the link's timing are
                # construction-time constants (nothing in the repository
                # mutates them mid-run); cache them, an absent limit as an
                # unreachable one, so the per-packet path skips the derefs
                # and the None checks.
                self._vcap_pk = _unbounded(queue.capacity_packets)
                self._vcap_by = _unbounded(queue.capacity_bytes)
                self._vthresh = _unbounded(queue.ecn_threshold_packets)
                # The same limits against an empty queue: the largest
                # packet it admits (-1: none) and whether it CE-marks.
                self._vidle_cap_by = (self._vcap_by if self._vcap_pk > 0
                                      else -1)
                self._vidle_mark = self._vthresh <= 0
                self._vtx = link._tx_time_cache
                self._vprop = link.prop_delay_ns
        return composed

    def _virtual_enqueue(self, packet: Packet, arrival: int) -> None:
        """Admit ``packet`` into this port's *future* queue state at time
        ``arrival``, and into every composed port after it on the packet's
        route, scheduling only the final delivery event.

        The caller guarantees non-decreasing ``arrival`` order — either a
        single upstream FIFO feeder (sole-feeder composition), or several
        chain-handoff feeders whose access links share one propagation
        delay (chain events fire in heap order; adding a common constant
        preserves both the order and the FIFO tie-breaks). The future
        occupancy at each arrival instant is then exact: packets whose
        drain starts strictly before the arrival have left (legacy
        drain-completion events at the arrival instant fired *after* the
        arrival event), and a packet that started on an idle transmitter
        was never queued (module docstring, idle-start rule).

        A hop whose port solely feeds the next hop's queue (see
        :meth:`compose_route`) hands the packet on at its delivery time
        in this same call, so the whole multi-hop traversal costs one
        call and a single delivery event at the final endpoint.
        """
        size = packet.size_bytes
        dst = packet.dst
        sim = self._sim
        credited = 0
        port = self
        while True:
            arrivals = port._varrivals
            if len(arrivals) > port._vfold_at:
                port._settle_composed()
                port._vfold_at = 2 * len(arrivals) + _FOLD_SLACK
            start = port._vbusy_until
            if start < arrival:
                # Idle transmitter: every booked drain has started, so
                # nothing is queued at this instant, and the limits at
                # depth 0 are the two constants _engage_composed folded.
                if port._vlen_pk:  # drains[_vhead:] is not empty yet
                    port._vhead = len(port._vdrains)
                    port._vlen_pk = port._vlen_by = 0
                if size > port._vidle_cap_by:
                    arrivals.append((arrival, 0, 0, 0, 0, 0, size))
                    # Credit the foregone arrival event; no drain.
                    sim._events_processed += credited + 1
                    return
                if port._vidle_mark and packet.ecn != 0:
                    packet.ecn = 2  # ECN.CE
                    marked = size
                else:
                    marked = 0
                # The packet produces depth 1 for the watermark and starts
                # at once, so later arrivals never see it queued.
                start = arrival
                arrivals.append((arrival, size, marked, size, 1, size, 0))
            else:
                # Busy (or freeing up at this very instant): it queues
                # behind the drains that have not started by now.
                drains = port._vdrains
                head = port._vhead
                n = len(drains)
                vlen_pk = port._vlen_pk
                vlen_by = port._vlen_by
                while head < n and drains[head][0] < arrival:
                    vlen_by -= drains[head][1]
                    vlen_pk -= 1
                    head += 1
                port._vhead = head
                if (vlen_pk >= port._vcap_pk
                        or vlen_by + size > port._vcap_by):
                    port._vlen_pk = vlen_pk
                    port._vlen_by = vlen_by
                    arrivals.append((arrival, 0, 0, 0, 0, 0, size))
                    sim._events_processed += credited + 1
                    return
                if vlen_pk >= port._vthresh and packet.ecn != 0:
                    packet.ecn = 2  # ECN.CE
                    marked = size
                else:
                    marked = 0
                vlen_pk += 1
                vlen_by += size
                drains.append((start, size))
                port._vlen_pk = vlen_pk
                port._vlen_by = vlen_by
                arrivals.append((arrival, size, marked, 0,
                                 vlen_pk, vlen_by, 0))
            tx = port._vtx.get(size)
            if tx is None:
                tx = port.link.tx_time_ns(packet)
            end = start + tx
            port._vbusy_until = end
            # The two foregone legacy events (arrival delivery + drain
            # completion) are credited at once; their bookkeeping is
            # folded in once virtual time has passed them.
            credited += 2
            arrival = end + port._vprop
            downstream = port._compose_routes.get(dst)
            if downstream is None:
                break
            composed = downstream._composed
            if composed is None:
                composed = downstream._engage_composed()
            if not composed:
                break
            port = downstream
        sim._events_processed += credited
        # Inline EventQueue.push_fire (delivery time is always positive).
        eq = sim._queue
        seq = eq._next_seq
        eq._next_seq = seq + 1
        heappush(eq._heap, [arrival, seq, port._sink.receive, (packet,)])

    def _settle_composed(self) -> None:
        """Fold into the queue's counters every booked arrival and every
        booked drain start that virtual time has strictly passed.

        The two folds are independent sums: the depth each arrival
        produced was fixed at admission (in exact arrival-before-drain
        order — the legacy arrival event carried the smaller sequence
        number), so high-watermarks and interval peaks need no replay,
        and a drain start older than now implies its arrival is too. Each
        fold is one bisection and column sums over the passed records.
        The queue keeps its depth as a count, so it retains no packet.
        """
        now = self._sim._now
        queue = self.queue
        stats = queue._stats
        deq_pk = deq_by = enq_pk = enq_by = 0
        arrivals = self._varrivals
        passed = bisect_left(arrivals, (now,))
        if passed:
            (times, sizes, marks, idles, depths_pk, depths_by,
             drops) = zip(*arrivals[:passed])
            del arrivals[:passed]
            enq_pk = drops.count(0)
            enq_by = sum(sizes)
            deq_pk = passed - idles.count(0)
            deq_by = sum(idles)
            stats.enqueued_packets += enq_pk
            stats.enqueued_bytes += enq_by
            stats.dropped_packets += passed - enq_pk
            stats.dropped_bytes += sum(drops)
            stats.marked_packets += passed - marks.count(0)
            stats.marked_bytes += sum(marks)
            deepest = max(depths_pk)
            if deepest > stats.max_len_packets:
                stats.max_len_packets = deepest
            deepest = max(depths_by)
            if deepest > stats.max_len_bytes:
                stats.max_len_bytes = deepest
            interval = queue._peak_interval_ns
            if interval:
                # One max per interval the passed arrivals fall in (they
                # are in time order, so each interval is one slice).
                peaks = queue._peaks
                lo = 0
                while lo < passed:
                    idx = times[lo] // interval
                    hi = bisect_left(times, (idx + 1) * interval, lo)
                    deepest = max(depths_pk[lo:hi])
                    if deepest > peaks.get(idx, 0):
                        peaks[idx] = deepest
                    lo = hi
            if self._switch is not None:
                self._switch._forwarded += passed
        drains = self._vdrains
        passed = bisect_left(drains, (now,))
        if passed:
            head = self._vhead
            if head < passed:
                # Started before now, so before any arrival still to
                # come: they have left the future queue too.
                self._vlen_pk -= passed - head
                self._vlen_by -= sum(map(_SIZE, drains[head:passed]))
                head = passed
            self._vhead = head - passed
            deq_pk += passed
            deq_by += sum(map(_SIZE, drains[:passed]))
            del drains[:passed]
        if deq_pk:
            stats.dequeued_packets += deq_pk
            stats.dequeued_bytes += deq_by
            link = self.link
            link.bytes_sent += deq_by
            link.packets_sent += deq_pk
        queue._len_bytes += enq_by - deq_by
        if enq_pk != deq_pk:
            queue._composed_len += enq_pk - deq_pk

    # --- legacy pump ----------------------------------------------------

    def _pump(self) -> None:
        if self.link.busy:
            return
        packet = self.queue.pop()
        if packet is not None:
            self.link.transmit(packet, on_done=self._pump)

    def __repr__(self) -> str:
        return f"EgressPort({self.name}, qlen={self.queue.len_packets})"


class Switch:
    """Output-queued switch with static destination-based forwarding.

    Attributes:
        name: Label for traces and error messages.
    """

    def __init__(self, sim: Simulator, name: str = "switch"):
        self._sim = sim
        self.name = name
        self._ports: list[EgressPort] = []
        self._routes: dict[int, EgressPort] = {}
        self._default_port: Optional[EgressPort] = None
        self._forwarded = 0

    @property
    def forwarded_packets(self) -> int:
        """Packets forwarded so far. Composed ports count theirs when they
        fold, so the read folds first, as ``DropTailQueue.stats`` does."""
        self.settle()
        return self._forwarded

    def settle(self) -> None:
        """Fold into the counters whatever every composed port has booked
        that virtual time has passed: what any read of them folds first,
        done now, so the records are freed."""
        for port in self._ports:
            if port._composed:
                port._settle_composed()

    @property
    def ports(self) -> list[EgressPort]:
        """All egress ports, in attachment order."""
        return list(self._ports)

    def attach_port(self, link: Link, queue: DropTailQueue,
                    name: str = "") -> EgressPort:
        """Create an egress port that drains ``queue`` onto ``link``."""
        port = EgressPort(self._sim, link, queue,
                          name or f"{self.name}.p{len(self._ports)}")
        port._switch = self
        self._ports.append(port)
        return port

    def add_route(self, dst: int, port: EgressPort) -> None:
        """Forward packets destined to host address ``dst`` via ``port``."""
        if port._switch is not self:
            raise ValueError(f"{self.name}: route to unattached port")
        self._routes[dst] = port

    def set_default_route(self, port: EgressPort) -> None:
        """Port used for any destination without an explicit route."""
        if port._switch is not self:
            raise ValueError(f"{self.name}: default route to unattached port")
        self._default_port = port

    def receive(self, packet: Packet) -> None:
        """Forward an arriving packet to its egress port (PacketSink API)."""
        port = self._routes.get(packet.dst, self._default_port)
        if port is None:
            raise RuntimeError(
                f"{self.name}: no route for destination {packet.dst}")
        self._forwarded += 1
        port.enqueue(packet)

    def __repr__(self) -> str:
        return f"Switch({self.name}, ports={len(self._ports)})"
