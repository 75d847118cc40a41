"""Host network interface card.

Egress: an unbounded FIFO in front of the host's access link (the host never
drops its own packets; TCP's window bounds how much it can have outstanding).
Ingress: demultiplexes packets to registered connections by flow id, and
feeds observer hooks (per-packet taps, e.g. the ``pulser`` scheme's).

Like Millisampler's eBPF filter, the NIC books the host's interval record
itself (:meth:`HostNIC.start_interval_counts`): bytes in and out,
CE-marked bytes in, retransmitted bytes either way and the flows seen,
with no callback per packet. It is the packet substrate's one producer
of that record. Booking and hooks sit behind one flag per direction, so
an unobserved NIC pays one check per packet.

Egress runs as a *chain event* when the access link is a plain
:class:`~repro.netsim.link.Link`: instead of the per-packet
``transmit``/serialization-complete/pump callback dance, the NIC schedules
one self-rescheduling chain event per serialization. The chain event fires
at each end-of-serialization instant, pushes the delivery event, and pushes
the next chain link — the *identical* sequence of kernel pushes, at the
identical times and in the identical order, as the legacy path, so global
event ordering (and therefore every simulation result) is bit-for-bit
unchanged while the ``Link.transmit`` bookkeeping and pump callbacks
disappear from the hot path.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Protocol

from repro.netsim.link import Link
from repro.netsim.packet import ECN, Packet
from repro.simcore.kernel import Simulator

IngressHook = Callable[[Packet, int], None]
"""Observer called as ``hook(packet, now_ns)`` for every delivered packet."""

EgressHook = Callable[[Packet, int], None]
"""Observer called as ``hook(packet, now_ns)`` for every packet the host
hands to its NIC for transmission."""

_CE = ECN.CE


class IntervalCounts:
    """What a NIC booked in one interval.

    Attributes:
        ingress_bytes: Bytes delivered to the host.
        egress_bytes: Bytes the host handed to its NIC.
        marked_bytes: CE-marked ingress bytes (the direction ECN marks
            are observable from a host).
        retransmit_bytes: Retransmitted-segment bytes in either direction.
        flows: Ids of the flows any of those packets belonged to.
    """

    __slots__ = ("ingress_bytes", "egress_bytes", "marked_bytes",
                 "retransmit_bytes", "flows")

    def __init__(self) -> None:
        self.ingress_bytes = 0
        self.egress_bytes = 0
        self.marked_bytes = 0
        self.retransmit_bytes = 0
        self.flows: set[int] = set()


class PacketHandler(Protocol):
    """A connection endpoint able to consume packets for its flow."""

    def handle_packet(self, packet: Packet) -> None:
        """Process an arriving packet belonging to this handler's flow."""
        ...


class HostNIC:
    """A host's single network interface.

    Attributes:
        address: The host address this NIC answers to.
        egress_link: Access link toward the ToR (set via :meth:`connect`).
    """

    # What only an observed NIC writes is a class default, which that
    # NIC replaces when it is observed; what every NIC of some role writes
    # is set in __init__ (DESIGN.md § *Per-flow footprint*). Observation
    # (start_interval_counts, add_*_hook): hooks are copy-on-write tuples,
    # and interval 0 = not counting.
    _ingress_hooks: tuple[IngressHook, ...] = ()
    _egress_hooks: tuple[EgressHook, ...] = ()
    _count_interval_ns = 0
    _counts: Mapping[int, IntervalCounts] = MappingProxyType({})

    def __init__(self, sim: Simulator, address: int, name: str = "nic"):
        self._sim = sim
        self.address = address
        self.name = name
        self.egress_link: Optional[Link] = None
        # Packets waiting behind a busy transmitter: a deque from the first
        # one that waits to the end of the busy spell, the shared empty
        # tuple otherwise (a chain-mode NIC is idle most of a run).
        self._egress_fifo: deque[Packet] | tuple = ()
        self._handlers: dict[int, PacketHandler] = {}
        # What the per-packet paths check: whether anyone observes each
        # direction, and which egress drain this NIC took.
        self._ingress_observed = False
        self._egress_observed = False
        self.bytes_received = 0
        self.packets_received = 0
        self.bytes_sent = 0
        # Chain-event egress (see module docstring). Decided on first send;
        # None = undecided, False = legacy transmit/pump path.
        self._chained: Optional[bool] = None
        self._chain_on = False  # a chain event is in flight
        self._egress_sink = None
        # Chain-handoff: chain events stay (their heap order *is* the
        # multi-feeder arrival order at the downstream switch), but each
        # chain hands the packet straight into the composed downstream
        # port with an arrival timestamp instead of scheduling the
        # switch-delivery event. Requires every feeder of that port to
        # hand off at one common propagation delay (see
        # compose_chain_into).
        self._handoff_port = None
        self._handoff: Optional[bool] = None

    # --- wiring ---------------------------------------------------------

    def connect(self, link: Link) -> None:
        """Attach the outgoing access link."""
        self.egress_link = link

    def compose_chain_into(self, port) -> None:
        """Declare that this NIC's access link feeds ``port``'s switch and
        that **every** feeder of ``port``'s queue is a chain-mode NIC whose
        access link has the *same* propagation delay (topology-builder
        promise). Chain events then hand packets straight into ``port``'s
        composed virtual queue: equal delays make chain-firing order equal
        arrival order, so admission/marking order — including same-instant
        FIFO tie-breaks — matches the legacy delivery events exactly.
        Routing is still checked per packet."""
        self._handoff_port = port

    def register_flow(self, flow_id: int, handler: PacketHandler) -> None:
        """Deliver packets for ``flow_id`` to ``handler``."""
        if flow_id in self._handlers:
            raise ValueError(f"{self.name}: flow {flow_id} already registered")
        self._handlers[flow_id] = handler

    # --- observation -------------------------------------------------------

    def add_ingress_hook(self, hook: IngressHook) -> IngressHook:
        """Observe every delivered packet (measurement tap)."""
        self._ingress_hooks += (hook,)
        self._reobserve()
        return hook

    def remove_ingress_hook(self, hook: IngressHook) -> None:
        """Stop observing ingress. Raises ValueError if not registered."""
        i = self._ingress_hooks.index(hook)
        self._ingress_hooks = (self._ingress_hooks[:i]
                               + self._ingress_hooks[i + 1:])
        self._reobserve()

    def add_egress_hook(self, hook: EgressHook) -> EgressHook:
        """Observe every packet queued for transmission (measurement tap)."""
        self._egress_hooks += (hook,)
        self._reobserve()
        return hook

    def remove_egress_hook(self, hook: EgressHook) -> None:
        """Stop observing egress. Raises ValueError if not registered."""
        i = self._egress_hooks.index(hook)
        self._egress_hooks = (self._egress_hooks[:i]
                              + self._egress_hooks[i + 1:])
        self._reobserve()

    def start_interval_counts(self, interval_ns: int) -> None:
        """Start booking, per ``interval_ns``-long interval of the
        simulator clock (aligned to t=0), the :class:`IntervalCounts` of
        every packet delivered to or sent by this host — at the instant
        an ingress or egress hook would see it, without calling one."""
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        if self._count_interval_ns:
            raise RuntimeError(
                f"{self.name}: interval counts are already being recorded")
        self._count_interval_ns = int(interval_ns)
        self._counts = {}
        self._reobserve()

    def interval_counts(self) -> Mapping[int, IntervalCounts]:
        """Counts by interval index; intervals without a packet are
        absent. This is the live mapping the NIC keeps writing (an empty
        read-only one while not counting)."""
        return self._counts

    def stop_interval_counts(self) -> Mapping[int, IntervalCounts]:
        """Stop booking and return what was booked; the NIC keeps no
        trace of it."""
        counts = self._counts
        self._count_interval_ns = 0
        self._counts = HostNIC._counts
        self._reobserve()
        return counts

    def _reobserve(self) -> None:
        counting = bool(self._count_interval_ns)
        self._ingress_observed = counting or bool(self._ingress_hooks)
        self._egress_observed = counting or bool(self._egress_hooks)

    def _book(self, packet: Packet, now: int) -> IntervalCounts:
        """The interval record ``packet`` falls in, with its flow and
        retransmitted bytes booked (direction-specific bytes are the
        caller's)."""
        idx = now // self._count_interval_ns
        counts = self._counts.get(idx)
        if counts is None:
            counts = self._counts[idx] = IntervalCounts()
        if packet.is_retransmit:
            counts.retransmit_bytes += packet.size_bytes
        counts.flows.add(packet.flow_id)
        return counts

    # --- egress ----------------------------------------------------------

    @property
    def egress_backlog_packets(self) -> int:
        """Packets waiting in the host's egress FIFO."""
        return len(self._egress_fifo)

    def send(self, packet: Packet) -> None:
        """Queue ``packet`` for transmission on the access link."""
        link = self.egress_link
        if link is None:
            raise RuntimeError(f"{self.name}: send before connect()")
        self.bytes_sent += packet.size_bytes
        if self._egress_observed:
            now = self._sim._now
            if self._count_interval_ns:
                self._book(packet, now).egress_bytes += packet.size_bytes
            for hook in self._egress_hooks:
                hook(packet, now)
        chained = self._chained
        if chained is None:
            chained = self._chained = (type(link) is Link
                                       and link.sink is not None)
        if not chained or self._chain_on:
            # Legacy path, or the transmitter is busy: queue behind it;
            # the pump or the chain pops it later.
            fifo = self._egress_fifo
            if not fifo:
                fifo = self._egress_fifo = deque()
            fifo.append(packet)
            if not chained:
                self._pump()
            return
        # Idle transmitter: start serializing now, exactly as the legacy
        # pump called Link.transmit from within send().
        self._chain_on = True
        size = packet.size_bytes
        link.bytes_sent += size
        link.packets_sent += 1
        tx = link._tx_time_cache.get(size)
        if tx is None:
            tx = link.tx_time_ns(packet)
        # Inline EventQueue.push_fire, as in _chain.
        sim = self._sim
        eq = sim._queue
        seq = eq._next_seq
        free = eq._free
        if free:
            entry = free.pop()
            entry[0] = sim._now + tx
            entry[1] = seq
            entry[2] = self._chain
            entry[3] = (packet,)
        else:
            entry = [sim._now + tx, seq, self._chain, (packet,)]
        eq._next_seq = seq + 1
        heappush(eq._heap, entry)
        eq._live += 1

    def _chain(self, packet: Packet) -> None:
        """End-of-serialization for ``packet``: deliver it after propagation
        and immediately start serializing the next queued packet.

        The push order here — delivery first, then the next chain link —
        matches the legacy ``Link._tx_complete`` (delivery push, then the
        ``on_done`` pump's ``transmit`` push), preserving FIFO tie-breaks.
        """
        link = self.egress_link
        sim = self._sim
        now = sim._now
        prop = link.prop_delay_ns
        if self._handoff or (self._handoff is None and self._decide_handoff()):
            port = self._handoff_port
            switch = port._switch
            if (switch._routes.get(packet.dst, switch._default_port)
                    is not port):
                raise RuntimeError(
                    f"{self.name}: destination {packet.dst} does not route "
                    f"to the chain-handoff port {port.name} — the "
                    f"topology builder's promise was violated")
            port._virtual_enqueue(packet, now + prop)
        else:
            sink = self._egress_sink
            if sink is None:
                sink = self._egress_sink = link.sink
            if prop == 0:
                sink.receive(packet)
            else:
                sim._queue.push_fire(now + prop, sink.receive, (packet,))
        fifo = self._egress_fifo
        if fifo:
            nxt = fifo.popleft()
            size = nxt.size_bytes
            link.bytes_sent += size
            link.packets_sent += 1
            tx = link._tx_time_cache.get(size)
            if tx is None:
                tx = link.tx_time_ns(nxt)
            # Inline EventQueue.push_fire (chain times are always positive).
            eq = sim._queue
            seq = eq._next_seq
            free = eq._free
            if free:
                entry = free.pop()
                entry[0] = now + tx
                entry[1] = seq
                entry[2] = self._chain
                entry[3] = (nxt,)
            else:
                entry = [now + tx, seq, self._chain, (nxt,)]
            eq._next_seq = seq + 1
            heappush(eq._heap, entry)
            eq._live += 1
        else:
            # The busy spell is over, and its FIFO with it.
            self._chain_on = False
            self._egress_fifo = ()

    def _decide_handoff(self) -> bool:
        """Engage chain-handoff if the builder declared a downstream port
        and that port can run composed. Unequal feeder propagation delays
        would silently reorder arrivals, so they are a hard error rather
        than a fallback (a mix of handoff and legacy-delivery feeders
        could not keep one consistent arrival order either)."""
        port = self._handoff_port
        link = self.egress_link
        handoff = (port is not None and type(link) is Link
                   and link.prop_delay_ns > 0
                   and link.sink is port._switch
                   and port._engage_composed())
        if handoff:
            prop = port._vfeeder_prop
            if prop is None:
                port._vfeeder_prop = link.prop_delay_ns
            elif prop != link.prop_delay_ns:
                raise RuntimeError(
                    f"{self.name}: chain-handoff into {port.name} needs "
                    f"every feeder link to share one propagation delay "
                    f"(have {link.prop_delay_ns} ns, port engaged with "
                    f"{prop} ns)")
        self._handoff = handoff
        return handoff

    def _pump(self) -> None:
        if self.egress_link is None or self.egress_link.busy:
            return
        if self._egress_fifo:
            packet = self._egress_fifo.popleft()
            self.egress_link.transmit(packet, on_done=self._pump)

    # --- ingress ----------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Accept a delivered packet (PacketSink API)."""
        self.bytes_received += packet.size_bytes
        self.packets_received += 1
        if self._ingress_observed:
            now = self._sim._now
            if self._count_interval_ns:
                counts = self._book(packet, now)
                counts.ingress_bytes += packet.size_bytes
                if packet.ecn == _CE:
                    counts.marked_bytes += packet.size_bytes
            for hook in self._ingress_hooks:
                hook(packet, now)
        handler = self._handlers.get(packet.flow_id)
        if handler is not None:
            handler.handle_packet(packet)

    def __repr__(self) -> str:
        return f"HostNIC(addr={self.address}, name={self.name})"
