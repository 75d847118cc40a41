"""In-simulation Millisampler-style observability layer.

The paper's measurement half (Section 3) rests on Millisampler, a host-side
eBPF sampler recording per-1 ms interval statistics. This package brings the
same lens *inside* the simulator: a :class:`TelemetryRecorder` subscribes to
the hook points the substrate exposes — the simulator's
:class:`~repro.simcore.hooks.HookRegistry`, queue watchers on
:class:`~repro.netsim.queues.DropTailQueue`, and NIC ingress/egress taps —
and records, per interval (default 1 ms) and per attached host:

- ingress and egress bytes,
- live (distinct) flow count,
- ECN CE-marked bytes,
- retransmitted bytes,

plus per-attached-queue peak occupancy — exactly the signal set the
production tool captures — and a per-flow lifecycle event log.

Flow lifecycle channels emitted by :mod:`repro.tcp.connection`:

===================  =========================================  ==========================
channel              arguments                                  fires
===================  =========================================  ==========================
``flow.open``        ``(flow_id, src_addr, dst_addr, t_ns)``    sender construction
``flow.first_byte``  ``(flow_id, host_addr, t_ns)``             first in-order delivery
``flow.alpha``       ``(flow_id, src_addr, alpha, t_ns)``       DCTCP alpha EWMA update
``flow.rto``         ``(flow_id, src_addr, backoff, t_ns)``     retransmission timeout
``flow.close``       ``(flow_id, src_addr, t_ns)``              all current demand ACKed
===================  =========================================  ==========================

(`flow.close` fires each time a persistent connection drains its demand,
i.e. once per burst it participates in.)

Captures are plain picklable records (:class:`TelemetryCapture`) that work
units carry back through the experiment engine; with ``--telemetry`` the
engine folds their JSON form into ``run_report.json`` and
``python -m repro.tools.telemetry_view`` renders them. Everything is
observer-gated: with the recorder absent, the instrumented code paths cost
one dict lookup or one empty-list check and results are bit-identical to
an uninstrumented build.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "recorder": (
        "FLOW_CHANNELS", "FlowEvent", "HostSeries", "QueueSeries",
        "TelemetryCapture", "TelemetryRecorder"),
})
