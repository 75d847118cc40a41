"""Host- and switch-side measurement tooling.

Models the paper's production measurement apparatus:

- :mod:`repro.measurement.records` — the Millisampler data model: per-host
  traces of 1 ms interval records (ingress bytes, active flows, ECN-marked
  bytes, retransmitted bytes).
- :mod:`repro.measurement.millisampler` — a packet-level implementation of
  Millisampler that taps a simulated host NIC, mirroring the production
  eBPF tc filter.
- :mod:`repro.measurement.watermark` — switch queue high-watermark sampling
  (per-window max occupancy, the counters ToRs expose).
- :mod:`repro.measurement.collection` — fleet campaign orchestration
  (services x hosts x snapshots), the shape of the paper's 18-hour study.
"""

from repro._lazy import lazy_exports

# repro.measurement.collection contributes no name here: it sits above
# repro.core (burst summarization), which consumes the record types
# below; import it as `repro.measurement.collection`.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "records": ("HostTrace", "TraceMeta"),
    "millisampler": ("Millisampler",),
    "watermark": ("WatermarkSampler",),
})
