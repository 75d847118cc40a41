"""The paper's primary contribution: incast burst characterization and
congestion-control diagnosis.

- :mod:`repro.core.bursts` — burst detection over Millisampler traces (the
  paper's definition: contiguous 1 ms intervals above 50% of line rate).
- :mod:`repro.core.metrics` — per-burst metrics (duration, flows, marking,
  retransmissions, queueing) and per-trace summaries.
- :mod:`repro.core.incast` — incast classification (>= 25 flows) and
  bimodality.
- :mod:`repro.core.stability` — temporal and cross-host stability of
  incast-degree distributions (Section 3.3).
- :mod:`repro.core.modes` — DCTCP operating-mode model: the degenerate
  point and Mode 1/2/3 classification (Section 4.1).
- :mod:`repro.core.divergence` — burst-boundary divergence: straggler
  identification and unfairness metrics (Section 4.3).
- :mod:`repro.core.predictor` — incast-degree prediction from burst history
  and guardrail recommendation (Sections 3.3 and 5.1).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bursts": ("Burst", "detect_bursts", "burst_frequency_hz"),
    "incast": ("INCAST_FLOW_THRESHOLD", "is_incast", "incast_fraction"),
    "metrics": ("BurstMetrics", "TraceSummary", "summarize_trace"),
    "modes": (
        "DctcpMode", "ModeModel", "classify_queue_trace",
        "degenerate_flow_count"),
    "divergence": ("DivergenceReport", "analyze_divergence", "jains_index"),
    "predictor": (
        "GuardrailAdvisor", "IncastDegreePredictor", "QuantileTracker"),
    "stability": (
        "StabilityReport", "temporal_stability", "cross_host_stability"),
})
