"""Host- and switch-side measurement tooling.

Models the paper's production measurement apparatus:

- :mod:`repro.measurement.records` — the Millisampler data model: per-host
  traces of 1 ms interval records (ingress bytes, active flows, ECN-marked
  bytes, retransmitted bytes). The fleet model writes them from the fluid
  kernel; a packet simulation's host NIC books the same record
  (:meth:`~repro.netsim.nic.HostNIC.start_interval_counts`) and
  :meth:`~repro.telemetry.recorder.TelemetryCapture.host_trace` reads it
  out.
- :mod:`repro.measurement.watermark` — the ``queue.watermark`` hook
  channel and its periodic occupancy publisher, which the ``detect``
  scheme subscribes to. Per-interval peak occupancy, the counters ToRs
  expose, is booked by the queue itself
  (:meth:`~repro.netsim.queues.DropTailQueue.start_interval_peaks`).
- :mod:`repro.measurement.collection` — fleet campaign orchestration
  (services x hosts x snapshots), the shape of the paper's 18-hour study.
"""

from repro._lazy import lazy_exports

# repro.measurement.collection contributes no name here: it sits above
# repro.core (burst summarization), which consumes the record types
# below; import it as `repro.measurement.collection`.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "records": ("HostTrace", "TraceMeta"),
})
