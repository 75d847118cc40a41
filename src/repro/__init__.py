"""Reproduction of *Understanding Incast Bursts in Modern Datacenters*
(Canel et al., ACM IMC 2024).

The package is organized bottom-up:

- :mod:`repro.simcore` — discrete-event kernel (integer-nanosecond time).
- :mod:`repro.netsim` — packet-level network model (links, ECN queues,
  shared buffers, switches, NICs, the paper's dumbbell) plus the fluid
  bottleneck used by the production fleet model.
- :mod:`repro.tcp` — TCP with pluggable congestion control: Reno, DCTCP
  (the paper's subject), a Swift-like paced CCA, and the guardrail wrapper.
- :mod:`repro.workloads` — the Section 4 cyclic incast application (with
  Section 5.2's sub-incast admission groups) and the Section 3
  five-service synthetic fleet.
- :mod:`repro.measurement` — the Millisampler record, the switch
  watermark channel, and fleet campaign orchestration.
- :mod:`repro.core` — the paper's analyses: burst detection, incast
  classification, stability, DCTCP operating modes, straggler divergence,
  and the incast-degree predictor.
- :mod:`repro.analysis` — CDFs, series helpers, and table rendering.
- :mod:`repro.experiments` — one runner per table/figure of the paper.
"""

from repro import units

__version__ = "1.2.5"

__all__ = ["units", "__version__"]
