"""In-simulation Millisampler-style observability layer.

The paper's measurement half (Section 3) rests on Millisampler, a host-side
eBPF sampler keeping per-1 ms counters in the kernel and exporting them
once. This package brings the same lens *inside* the simulator, in the
same way: the producers book their own interval records and a
:class:`TelemetryRecorder` switches them on, reads them at export and
switches them off. Per interval (default 1 ms) and per attached host,
:class:`~repro.netsim.nic.HostNIC` books

- ingress and egress bytes,
- live (distinct) flow count,
- ECN CE-marked bytes,
- retransmitted bytes,

and each attached :class:`~repro.netsim.queues.DropTailQueue` books its
peak occupancy — exactly the signal set the production tool captures —
with no per-packet callback. The recorder's only subscriptions are the
flow lifecycle channels of the simulator's
:class:`~repro.simcore.hooks.HookRegistry`, kept as a per-flow event log.

Flow lifecycle channels emitted by :mod:`repro.tcp.connection`:

===================  ==========================================  ==========================
channel              arguments                                   fires
===================  ==========================================  ==========================
``flow.open``        ``(flow_id, src_addr, dst_addr, t_ns)``     sender construction
``flow.first_byte``  ``(flow_id, host_addr, t_ns)``              first in-order delivery
``flow.alpha``       ``(flow_id, src_addr, alpha, t_ns)``        DCTCP alpha EWMA update
``flow.rto``         ``(flow_id, src_addr, multiplier, t_ns)``   retransmission timeout
``flow.close``       ``(flow_id, src_addr, t_ns)``               all current demand ACKed
===================  ==========================================  ==========================

(`flow.rto`'s multiplier is the factor the timeout was just backed off
to: 2, 4, …, 64. `flow.close` fires each time a persistent connection
drains its demand, i.e. once per burst it participates in.)

Captures are plain picklable records (:class:`TelemetryCapture`, the event
log held as columns) that work units carry back through the experiment
engine; with ``--telemetry`` the engine folds their JSON form into
``run_report.json`` and ``python -m repro.tools.telemetry_view`` renders
them. Everything is observer-gated: with the recorder absent, the
instrumented code paths cost one dict lookup or one flag check and
results are bit-identical to an uninstrumented build.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "recorder": (
        "FLOW_CHANNELS", "FlowEvent", "HostSeries", "QueueSeries",
        "TelemetryCapture", "TelemetryRecorder"),
})
