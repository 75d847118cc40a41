"""Millisampler-style in-simulation recorder.

A :class:`TelemetryRecorder` is created alongside a :class:`Simulator`.
The producers book their own interval records, as Millisampler's eBPF
filter keeps its per-1 ms counters in the kernel and exports them once:

- :meth:`HostNIC.start_interval_counts` per attached host: per fixed
  interval (default 1 ms, the Millisampler granularity) ingress bytes,
  egress bytes, distinct active flows, CE-marked ingress bytes and
  retransmitted bytes;
- :meth:`DropTailQueue.start_interval_peaks` per attached queue: the peak
  occupancy each interval reached, booked at enqueue, so an observed
  queue is simulated exactly as an unobserved one (it keeps the switch's
  composed drain).

Neither installs a per-packet callback. The recorder itself subscribes
only to the ``sim.hooks`` flow-lifecycle channels (see
:data:`FLOW_CHANNELS`), appending one plain tuple per event. At
:meth:`TelemetryRecorder.export` the books are densified into numpy
arrays and the event rows transposed, once, into the columns a
:class:`TelemetryCapture` holds; :class:`FlowEvent` objects are built
only when :attr:`TelemetryCapture.events` is read.

:meth:`TelemetryRecorder.detach` stops every producer and unsubscribes
every channel, restoring the simulation to an unobserved state — tests
rely on this to show that attach/detach round-trips leave no residue.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro import units
from repro.netsim.host import Host
from repro.netsim.queues import DropTailQueue
from repro.simcore.kernel import Simulator

if TYPE_CHECKING:
    from repro.measurement.records import HostTrace, TraceMeta

FLOW_CHANNELS = ("flow.open", "flow.first_byte", "flow.alpha", "flow.rto",
                 "flow.close")
"""Hook channels emitted by :mod:`repro.tcp.connection` that the recorder
subscribes to."""

DEFAULT_EVENT_CAP = 100_000
"""Lifecycle events retained before the recorder starts counting drops
instead of appending (keeps worst-case memory bounded)."""


@dataclass(frozen=True)
class FlowEvent:
    """One flow lifecycle event.

    ``value`` carries the channel's extra datum, always as a float: the
    destination address for ``flow.open``, the new alpha for
    ``flow.alpha``, the RTO backoff multiplier (2, 4, …, 64: the factor
    the timeout was just scaled by) for ``flow.rto``, and ``0.0``
    otherwise.
    """

    time_ns: int
    kind: str
    flow_id: int
    host: int
    value: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (one flat object per event)."""
        return {"time_ns": self.time_ns, "kind": self.kind,
                "flow_id": self.flow_id, "host": self.host,
                "value": self.value}


@dataclass
class HostSeries:
    """Dense per-interval series for one host (Millisampler's record).

    ``marked_bytes`` counts CE-marked *ingress* bytes (the direction ECN
    marks are observable from a host). ``retransmit_bytes`` and
    ``flow_count`` count packets crossing the host in either direction, so
    they are populated both at senders (which emit retransmissions) and at
    the incast receiver (which absorbs them). At an incast receiver without
    delayed ACKs the flows are exactly Millisampler's ingress-only set: the
    receiver sends nothing of its own, and it acknowledges each segment in
    the interval the segment arrived.
    """

    name: str
    address: int
    ingress_bytes: np.ndarray
    egress_bytes: np.ndarray
    flow_count: np.ndarray
    marked_bytes: np.ndarray
    retransmit_bytes: np.ndarray

    SIGNALS = ("ingress_bytes", "egress_bytes", "flow_count", "marked_bytes",
               "retransmit_bytes")

    def to_dict(self) -> dict:
        """JSON-ready form: each signal as a list plus its total."""
        out: dict = {"address": self.address}
        for signal in self.SIGNALS:
            series = getattr(self, signal)
            out[signal] = [int(v) for v in series]
            out[f"total_{signal}"] = int(series.sum())
        return out


@dataclass
class QueueSeries:
    """Per-interval peak occupancy for one queue."""

    name: str
    capacity_packets: Optional[int]
    peak_packets: np.ndarray

    def to_dict(self) -> dict:
        """JSON-ready form: the peak series plus its maximum."""
        return {"capacity_packets": self.capacity_packets,
                "peak_packets": [int(v) for v in self.peak_packets],
                "max_peak_packets": int(self.peak_packets.max())
                if self.peak_packets.size else 0}


@dataclass
class TelemetryCapture:
    """Picklable snapshot of everything a recorder observed.

    This is what rides back from a worker process inside a work-unit
    payload, lands in the result cache, and (as :meth:`to_dict`) in
    ``run_report.json``.

    The lifecycle log is held as five columns, one tuple per
    :class:`FlowEvent` field: entry ``i`` of each describes event ``i``,
    in emission order. That is what export, renumbering and pickling
    touch; :attr:`events` builds the rows when read.
    """

    interval_ns: int
    n_intervals: int
    hosts: dict[str, HostSeries] = field(default_factory=dict)
    queues: dict[str, QueueSeries] = field(default_factory=dict)
    event_time_ns: tuple[int, ...] = ()
    event_kind: tuple[str, ...] = ()
    event_flow_id: tuple[int, ...] = ()
    event_host: tuple[int, ...] = ()
    event_value: tuple[float, ...] = ()
    events_dropped: int = 0
    event_counts: dict[str, int] = field(default_factory=dict)

    @property
    def events(self) -> list[FlowEvent]:
        """The kept lifecycle log as :class:`FlowEvent` rows (built on
        each access)."""
        return self._rows(len(self.event_kind))

    def host_trace(self, name: str, line_rate_bps: float,
                   meta: "TraceMeta") -> "HostTrace":
        """Host ``name``'s series as the Section 3 record, a
        :class:`~repro.measurement.records.HostTrace` at this capture's
        interval: ``flow_count`` becomes ``active_flows`` and egress
        bytes are left out, so the burst analyses run on a packet
        simulation's host exactly as on a fleet capture."""
        from repro.measurement.records import HostTrace
        series = self.hosts[name]
        return HostTrace(meta, line_rate_bps, series.ingress_bytes,
                         series.flow_count, series.marked_bytes,
                         series.retransmit_bytes,
                         interval_ns=self.interval_ns)

    def _rows(self, stop: int) -> list[FlowEvent]:
        return list(map(FlowEvent, self.event_time_ns[:stop],
                        self.event_kind[:stop], self.event_flow_id[:stop],
                        self.event_host[:stop], self.event_value[:stop]))

    def renumbered(self, addr_map: dict[int, int],
                   flow_map: dict[int, int]) -> "TelemetryCapture":
        """A copy with host addresses and flow ids rewritten to sim-local
        values.

        Hosts and flows draw their raw ids from process-global counters, so
        the same simulation yields different ids depending on how many
        simulations the worker process ran before it. Renumbering to
        run-local ids (sender index, connection index) restores the
        engine's contract that ``--jobs N`` output is byte-identical to
        serial output. Ids absent from a map pass through unchanged; a
        ``flow.open`` event's value (the destination address) is remapped
        like any other address.
        """
        remap_addr = addr_map.get
        remap_flow = flow_map.get
        return replace(
            self,
            hosts={name: replace(series,
                                 address=remap_addr(series.address,
                                                    series.address))
                   for name, series in self.hosts.items()},
            event_flow_id=tuple(map(remap_flow, self.event_flow_id,
                                    self.event_flow_id)),
            event_host=tuple(map(remap_addr, self.event_host,
                                 self.event_host)),
            event_value=tuple([
                value if kind != "open"
                else float(remap_addr(int(value), int(value)))
                for kind, value in zip(self.event_kind, self.event_value)]),
        )

    def to_dict(self, max_events: int = 200) -> dict:
        """JSON-ready form; the event log is truncated to ``max_events``
        entries (counts stay exact)."""
        return {
            "interval_ns": self.interval_ns,
            "n_intervals": self.n_intervals,
            "hosts": {name: series.to_dict()
                      for name, series in self.hosts.items()},
            "queues": {name: series.to_dict()
                       for name, series in self.queues.items()},
            "event_counts": dict(self.event_counts),
            "n_events": len(self.event_kind) + self.events_dropped,
            "events_dropped": self.events_dropped,
            "events": [e.to_dict() for e in self._rows(max_events)],
        }


class _Book:
    """One producer's sparse per-interval book: read from the producer
    while the recorder is attached, kept here once it has detached."""

    __slots__ = ("_read", "_stop", "_kept")

    def __init__(self, read: Callable[[], dict],
                 stop: Callable[[], dict]) -> None:
        self._read = read
        self._stop = stop
        self._kept: Optional[dict] = None

    def read(self) -> dict:
        """The book by interval index, as of now."""
        return self._read() if self._kept is None else self._kept

    def close(self) -> None:
        """Stop the producer, keeping what it booked."""
        if self._kept is None:
            self._kept = self._stop()


class TelemetryRecorder:
    """Record Millisampler-style interval series from a live simulation.

    Usage::

        recorder = TelemetryRecorder(sim)
        recorder.attach()                     # flow lifecycle channels
        recorder.attach_host(net.receiver)    # per-host byte/flow series
        recorder.attach_queue(net.bottleneck_queue)
        ... sim.run(...) ...
        capture = recorder.export()

    Args:
        sim: The simulator whose clock and hook registry to observe.
        interval_ns: Sampling interval; intervals are aligned to t=0, so
            interval ``k`` covers ``[k*interval_ns, (k+1)*interval_ns)``.
        event_cap: Maximum lifecycle events retained verbatim.
    """

    def __init__(self, sim: Simulator,
                 interval_ns: int = units.msec(1.0),
                 event_cap: int = DEFAULT_EVENT_CAP):
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self._sim = sim
        self.interval_ns = int(interval_ns)
        self.event_cap = event_cap
        # label -> (address, book of IntervalCounts)
        self._hosts: dict[str, tuple[int, _Book]] = {}
        # label -> (capacity_packets, book of peaks)
        self._queues: dict[str, tuple[Optional[int], _Book]] = {}
        # (time_ns, kind, flow_id, host, value): FlowEvent's field order.
        self._events: list[tuple[int, str, int, int, float]] = []
        # Events past the cap, by kind in first-drop order; kept events
        # are counted from the log itself at export.
        self._dropped: dict[str, int] = {}
        self._flow_handlers: dict[str, object] = {}
        self._attached = False

    # --- wiring -----------------------------------------------------------

    def attach(self) -> None:
        """Subscribe to the flow lifecycle channels on ``sim.hooks``
        (``event_cap`` is read here)."""
        if self._attached:
            raise RuntimeError("recorder already attached")
        handlers = {
            "flow.open": self._flow_handler("open"),
            "flow.first_byte": self._flow_handler("first_byte", valued=False),
            "flow.alpha": self._flow_handler("alpha"),
            "flow.rto": self._flow_handler("rto"),
            "flow.close": self._flow_handler("close", valued=False),
        }
        for channel, handler in handlers.items():
            self._sim.hooks.subscribe(channel, handler)
        self._flow_handlers = handlers
        self._attached = True

    def attach_host(self, host: Host, name: Optional[str] = None) -> None:
        """Record per-interval ingress/egress/flow/mark/retransmit series
        for ``host``: its NIC books them itself."""
        label = name or host.name
        if label in self._hosts:
            raise ValueError(f"host {label!r} already attached")
        nic = host.nic
        nic.start_interval_counts(self.interval_ns)
        self._hosts[label] = (host.address, _Book(nic.interval_counts,
                                                  nic.stop_interval_counts))

    def attach_queue(self, queue: DropTailQueue,
                     name: Optional[str] = None) -> None:
        """Record per-interval peak occupancy of ``queue`` (the depth each
        enqueue produced). Allowed at any time, traffic or not: the queue
        books the peaks itself, whichever way its port drains it."""
        label = name or queue.name
        if label in self._queues:
            raise ValueError(f"queue {label!r} already attached")
        queue.start_interval_peaks(self._sim, self.interval_ns)
        self._queues[label] = (queue.capacity_packets,
                               _Book(queue.interval_peaks,
                                     queue.stop_interval_peaks))

    def detach(self) -> None:
        """Remove every subscription this recorder installed.

        After this call the simulator, NICs and queues carry no trace of
        the recorder; recorded data stays available for :meth:`export`.
        """
        if self._attached:
            for channel, handler in self._flow_handlers.items():
                self._sim.hooks.unsubscribe(channel, handler)
            self._flow_handlers = {}
            self._attached = False
        for _, book in (*self._hosts.values(), *self._queues.values()):
            book.close()

    # --- flow lifecycle handlers -----------------------------------------

    def _flow_handler(self, kind: str, valued: bool = True):
        """The subscriber for one lifecycle channel. Valued channels emit
        ``(flow_id, host, value, t_ns)`` (``flow.open``'s value is the
        destination address), the others ``(flow_id, host, t_ns)``. One
        call per event: ``flow.alpha`` fires on most ACKs."""
        events = self._events
        append = events.append
        cap = self.event_cap
        dropped = self._dropped

        def record(flow_id: int, host: int, value: float,
                   t_ns: int) -> None:
            if len(events) < cap:
                append((t_ns, kind, flow_id, host, float(value)))
            else:
                dropped[kind] = dropped.get(kind, 0) + 1

        if valued:
            return record
        return lambda flow_id, host, t_ns: record(flow_id, host, 0.0, t_ns)

    # --- export -----------------------------------------------------------

    def export(self) -> TelemetryCapture:
        """Densify the books and transpose the event log into a
        :class:`TelemetryCapture`.

        Series share one global length (the latest interval any signal
        touched, across all hosts and queues), so per-host arrays line up
        index-for-index.
        """
        host_counts = {label: book.read()
                       for label, (_, book) in self._hosts.items()}
        queue_peaks = {label: book.read()
                       for label, (_, book) in self._queues.items()}
        n = 1 + max((max(book, default=-1) for book in
                     (*host_counts.values(), *queue_peaks.values())),
                    default=-1)

        def densify(sparse: dict[int, int]) -> np.ndarray:
            dense = np.zeros(n, dtype=np.int64)
            for idx, value in sparse.items():
                dense[idx] = value
            return dense

        hosts = {}
        for label, (address, _) in self._hosts.items():
            counts = host_counts[label].items()
            series = {signal: densify({idx: getattr(c, signal)
                                       for idx, c in counts})
                      for signal in ("ingress_bytes", "egress_bytes",
                                     "marked_bytes", "retransmit_bytes")}
            hosts[label] = HostSeries(
                name=label, address=address,
                flow_count=densify({idx: len(c.flows) for idx, c in counts}),
                **series)
        queues = {
            label: QueueSeries(name=label, capacity_packets=capacity,
                               peak_packets=densify(queue_peaks[label]))
            for label, (capacity, _) in self._queues.items()
        }
        columns = tuple(zip(*self._events)) or ((),) * 5
        # First-emission order: kinds in the kept log, then kinds first
        # emitted past the cap, in the order they were dropped.
        event_counts = Counter(columns[1])
        for kind, n_dropped in self._dropped.items():
            event_counts[kind] += n_dropped
        return TelemetryCapture(
            interval_ns=self.interval_ns,
            n_intervals=n,
            hosts=hosts,
            queues=queues,
            event_time_ns=columns[0],
            event_kind=columns[1],
            event_flow_id=columns[2],
            event_host=columns[3],
            event_value=columns[4],
            events_dropped=sum(self._dropped.values()),
            event_counts=dict(event_counts),
        )
