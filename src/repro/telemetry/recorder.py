"""Millisampler-style in-simulation recorder.

A :class:`TelemetryRecorder` is created alongside a :class:`Simulator` and
taps the observation points the substrate exposes:

- ``sim.hooks`` flow-lifecycle channels (see :data:`FLOW_CHANNELS`),
- :meth:`HostNIC.add_ingress_hook` / :meth:`HostNIC.add_egress_hook` per
  attached host,
- :meth:`DropTailQueue.start_interval_peaks` per attached queue.

Per attached host it accumulates, per fixed interval (default 1 ms, the
Millisampler granularity), ingress bytes, egress bytes, distinct active
flows, CE-marked ingress bytes, and retransmitted egress bytes. Per
attached queue it reads the peak occupancy each interval reached, which
the queue books itself at enqueue — no per-packet callback, so an
observed queue is simulated exactly as an unobserved one (it keeps the
switch's composed drain). All accumulation is sparse
(interval-index dicts, plain event tuples) during the run and densified
into numpy arrays and :class:`FlowEvent` objects at
:meth:`TelemetryRecorder.export` time.

Every subscription is remembered so :meth:`TelemetryRecorder.detach` can
restore the simulation to an unobserved state — tests rely on this to show
that attach/detach round-trips leave no residue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro import units
from repro.netsim.host import Host
from repro.netsim.packet import ECN, Packet
from repro.netsim.queues import DropTailQueue
from repro.simcore.kernel import Simulator

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

    ``value`` carries the channel's extra datum: the destination address for
    ``flow.open``, the new alpha for ``flow.alpha``, the RTO backoff
    exponent for ``flow.rto``, and ``0.0`` otherwise.
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
    marks are observable from a host); ``retransmit_bytes`` counts
    retransmitted-segment bytes crossing the host in either direction, so
    the series is populated both at senders (which emit retransmissions)
    and at the incast receiver (which absorbs them).
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
    """

    interval_ns: int
    n_intervals: int
    hosts: dict[str, HostSeries] = field(default_factory=dict)
    queues: dict[str, QueueSeries] = field(default_factory=dict)
    events: list[FlowEvent] = field(default_factory=list)
    events_dropped: int = 0
    event_counts: dict[str, int] = field(default_factory=dict)

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
        # FlowEvent(...) built directly, one expression per event: this
        # runs for every lifecycle event of a run (dataclasses.replace
        # costs a dozen calls each).
        events = [
            FlowEvent(e.time_ns, e.kind, remap_flow(e.flow_id, e.flow_id),
                      remap_addr(e.host, e.host),
                      e.value if e.kind != "open"
                      else float(remap_addr(int(e.value), int(e.value))))
            for e in self.events]
        return replace(
            self,
            hosts={name: replace(series,
                                 address=remap_addr(series.address,
                                                    series.address))
                   for name, series in self.hosts.items()},
            events=events,
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
            "n_events": len(self.events) + self.events_dropped,
            "events_dropped": self.events_dropped,
            "events": [e.to_dict() for e in self.events[:max_events]],
        }


class _HostAccum:
    """Sparse per-interval accumulators for one host."""

    __slots__ = ("name", "address", "ingress", "egress", "marked", "rtx",
                 "flows", "hooks")

    def __init__(self, name: str, address: int) -> None:
        self.name = name
        self.address = address
        self.ingress: dict[int, int] = {}
        self.egress: dict[int, int] = {}
        self.marked: dict[int, int] = {}
        self.rtx: dict[int, int] = {}
        self.flows: dict[int, set[int]] = {}
        self.hooks: list = []  # (unsubscribe-callable,) pairs, see detach

    def max_index(self) -> int:
        """Latest interval any signal touched (``-1`` when none did)."""
        indices = [max(d) for d in (self.ingress, self.egress, self.marked,
                                    self.rtx, self.flows) if d]
        return max(indices) if indices else -1


class _QueueAccum:
    """Sparse per-interval peak occupancy for one queue: read from the
    queue while it records, kept here once the recorder has detached."""

    __slots__ = ("name", "capacity_packets", "queue", "detached_peaks")

    def __init__(self, name: str, queue: DropTailQueue) -> None:
        self.name = name
        self.capacity_packets = queue.capacity_packets
        self.queue: Optional[DropTailQueue] = queue
        self.detached_peaks: dict[int, int] = {}

    def peaks(self) -> dict[int, int]:
        """Peak occupancy by interval index, as of now."""
        if self.queue is not None:
            return self.queue.interval_peaks()
        return self.detached_peaks


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
        self._hosts: dict[str, _HostAccum] = {}
        self._queues: dict[str, _QueueAccum] = {}
        # (time_ns, kind, flow_id, host, value): FlowEvent's field order.
        self._events: list[tuple[int, str, int, int, float]] = []
        self._events_dropped = 0
        self._event_counts: dict[str, int] = {}
        self._flow_handlers: dict[str, object] = {}
        self._attached = False

    # --- wiring -----------------------------------------------------------

    def attach(self) -> None:
        """Subscribe to the flow lifecycle channels on ``sim.hooks``."""
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
        for ``host``."""
        label = name or host.name
        if label in self._hosts:
            raise ValueError(f"host {label!r} already attached")
        accum = _HostAccum(label, host.address)
        # These run once per packet: everything they touch is a local.
        interval_ns = self.interval_ns
        ingress, egress = accum.ingress, accum.egress
        marked, rtx, flows = accum.marked, accum.rtx, accum.flows
        ce = ECN.CE

        def on_ingress(packet: Packet, now: int) -> None:
            idx = now // interval_ns
            size = packet.size_bytes
            ingress[idx] = ingress.get(idx, 0) + size
            if packet.ecn == ce:
                marked[idx] = marked.get(idx, 0) + size
            if packet.is_retransmit:
                rtx[idx] = rtx.get(idx, 0) + size
            active = flows.get(idx)
            if active is None:
                active = flows[idx] = set()
            active.add(packet.flow_id)

        def on_egress(packet: Packet, now: int) -> None:
            idx = now // interval_ns
            size = packet.size_bytes
            egress[idx] = egress.get(idx, 0) + size
            if packet.is_retransmit:
                rtx[idx] = rtx.get(idx, 0) + size
            active = flows.get(idx)
            if active is None:
                active = flows[idx] = set()
            active.add(packet.flow_id)

        host.nic.add_ingress_hook(on_ingress)
        host.nic.add_egress_hook(on_egress)
        accum.hooks = [
            lambda: host.nic.remove_ingress_hook(on_ingress),
            lambda: host.nic.remove_egress_hook(on_egress),
        ]
        self._hosts[label] = accum

    def attach_queue(self, queue: DropTailQueue,
                     name: Optional[str] = None) -> None:
        """Record per-interval peak occupancy of ``queue`` (the depth each
        enqueue produced). Allowed at any time, traffic or not: the queue
        books the peaks itself, whichever way its port drains it."""
        label = name or queue.name
        if label in self._queues:
            raise ValueError(f"queue {label!r} already attached")
        queue.start_interval_peaks(self._sim, self.interval_ns)
        self._queues[label] = _QueueAccum(label, queue)

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
        for accum in self._hosts.values():
            for undo in accum.hooks:
                undo()
            accum.hooks = []
        for qaccum in self._queues.values():
            if qaccum.queue is not None:
                qaccum.detached_peaks = qaccum.queue.stop_interval_peaks()
                qaccum.queue = None

    # --- flow lifecycle handlers -----------------------------------------

    def _flow_handler(self, kind: str, valued: bool = True):
        """The subscriber for one lifecycle channel. Valued channels emit
        ``(flow_id, host, value, t_ns)`` (``flow.open``'s value is the
        destination address), the others ``(flow_id, host, t_ns)``. One
        call per event: ``flow.alpha`` fires on most ACKs."""
        counts = self._event_counts
        events = self._events

        def record(flow_id: int, host: int, value: float,
                   t_ns: int) -> None:
            counts[kind] = counts.get(kind, 0) + 1
            if len(events) < self.event_cap:
                events.append((t_ns, kind, flow_id, host, float(value)))
            else:
                self._events_dropped += 1

        if valued:
            return record
        return lambda flow_id, host, t_ns: record(flow_id, host, 0.0, t_ns)

    # --- export -----------------------------------------------------------

    def export(self) -> TelemetryCapture:
        """Densify accumulators into a :class:`TelemetryCapture`.

        Series share one global length (the latest interval any signal
        touched, across all hosts and queues), so per-host arrays line up
        index-for-index.
        """
        queue_peaks = {label: qaccum.peaks()
                       for label, qaccum in self._queues.items()}
        max_idx = -1
        for accum in self._hosts.values():
            max_idx = max(max_idx, accum.max_index())
        for peaks in queue_peaks.values():
            max_idx = max(max_idx, max(peaks, default=-1))
        n = max_idx + 1

        def densify(sparse: dict[int, int]) -> np.ndarray:
            dense = np.zeros(n, dtype=np.int64)
            for idx, value in sparse.items():
                dense[idx] = value
            return dense

        hosts = {}
        for label, accum in self._hosts.items():
            hosts[label] = HostSeries(
                name=label,
                address=accum.address,
                ingress_bytes=densify(accum.ingress),
                egress_bytes=densify(accum.egress),
                flow_count=densify(
                    {idx: len(s) for idx, s in accum.flows.items()}),
                marked_bytes=densify(accum.marked),
                retransmit_bytes=densify(accum.rtx),
            )
        queues = {
            label: QueueSeries(name=label,
                               capacity_packets=qaccum.capacity_packets,
                               peak_packets=densify(queue_peaks[label]))
            for label, qaccum in self._queues.items()
        }
        return TelemetryCapture(
            interval_ns=self.interval_ns,
            n_intervals=n,
            hosts=hosts,
            queues=queues,
            events=[FlowEvent(*event) for event in self._events],
            events_dropped=self._events_dropped,
            event_counts=dict(self._event_counts),
        )
