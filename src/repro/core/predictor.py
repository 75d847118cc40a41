"""Incast-degree prediction and guardrail advice (Sections 3.3 and 5.1).

The measurement study's punchline: per-service incast degree is stable over
hours and across hosts, so hosts could *predict* the scale of the next
incast and prepare, instead of reacting after queues have already built.
This module provides that predictor and the guardrail policy built on it:

- :class:`QuantileTracker` — streaming quantile estimation over a sliding
  window of per-burst flow counts;
- :class:`IncastDegreePredictor` — per-service mean (EWMA) and p99
  prediction with a stability check;
- :class:`GuardrailAdvisor` — converts a predicted degree into the
  per-flow CWND cap of :func:`repro.tcp.guardrail.guardrail_cap_bytes`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.tcp.guardrail import guardrail_cap_bytes


class QuantileTracker:
    """Sliding-window quantile estimator.

    Keeps the most recent ``window`` observations and answers arbitrary
    quantile queries. Simple and exact — burst rates are tens to hundreds
    per second, so a few thousand retained samples cover many minutes.
    """

    def __init__(self, window: int = 4096):
        if window <= 0:
            raise ValueError("window must be positive")
        self._window = deque(maxlen=window)

    def __len__(self) -> int:
        return len(self._window)

    def add(self, value: float) -> None:
        """Record one observation."""
        self._window.append(float(value))

    def quantile(self, q: float) -> float:
        """The ``q`` quantile of the retained window (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self._window:
            return 0.0
        return float(np.quantile(np.fromiter(self._window, dtype=np.float64),
                                 q))


@dataclass
class DegreeForecast:
    """One prediction of upcoming incast scale."""

    mean: float
    p99: float
    samples: int
    stable: bool


class IncastDegreePredictor:
    """Predicts a service's next-burst incast degree from burst history.

    The mean follows an EWMA over per-burst flow counts; the p99 comes from
    a sliding window. ``stable`` reports whether recent snapshot-level means
    stayed within a relative tolerance — the precondition (validated by
    Figure 3) for acting on the prediction.
    """

    def __init__(self, ewma_gain: float = 0.05, window: int = 4096,
                 stability_history: int = 16,
                 stability_tolerance: float = 0.25):
        if not 0.0 < ewma_gain <= 1.0:
            raise ValueError("ewma_gain must be in (0, 1]")
        self._gain = ewma_gain
        self._mean: Optional[float] = None
        self._quantiles = QuantileTracker(window)
        self._snapshot_means = deque(maxlen=stability_history)
        self._tolerance = stability_tolerance
        self._samples = 0

    @property
    def samples(self) -> int:
        """Number of bursts observed."""
        return self._samples

    def observe_burst(self, flow_count: float) -> None:
        """Fold one burst's flow count into the model."""
        if flow_count < 0:
            raise ValueError("flow_count must be >= 0")
        self._samples += 1
        self._quantiles.add(flow_count)
        if self._mean is None:
            self._mean = float(flow_count)
        else:
            self._mean += self._gain * (flow_count - self._mean)

    def observe_snapshot(self, flow_counts: Iterable[float]) -> None:
        """Fold one measurement snapshot (many bursts) into the model and
        record its mean for the stability check."""
        counts = [float(f) for f in flow_counts]
        for count in counts:
            self.observe_burst(count)
        if counts:
            self._snapshot_means.append(float(np.mean(counts)))

    def is_stable(self) -> bool:
        """Whether recent snapshot means stayed within tolerance of their
        own average (the Figure 3a criterion)."""
        if len(self._snapshot_means) < 2:
            return False
        means = np.asarray(self._snapshot_means)
        center = means.mean()
        if center == 0:
            return False
        return bool(np.abs(means - center).max() / center
                    <= self._tolerance)

    def forecast(self) -> DegreeForecast:
        """Current prediction of the next burst's incast degree."""
        return DegreeForecast(
            mean=self._mean if self._mean is not None else 0.0,
            p99=self._quantiles.quantile(0.99),
            samples=self._samples,
            stable=self.is_stable(),
        )


class GuardrailAdvisor:
    """Turns degree forecasts into per-flow CWND caps (Section 5.1).

    The advisor sizes the cap for the *worst-case* expected incast (the
    p99 degree — the quantity the paper highlights as usefully stable),
    so even the largest routine burst stays in the healthy Mode 1 region.
    """

    def __init__(self, ecn_threshold_packets: int, bdp_bytes: int,
                 mss_bytes: int, headroom: float = 1.0):
        self.ecn_threshold_packets = ecn_threshold_packets
        self.bdp_bytes = bdp_bytes
        self.mss_bytes = mss_bytes
        self.headroom = headroom

    def cap_for_degree(self, flow_count: float) -> int:
        """CWND cap in bytes for an expected incast of ``flow_count``."""
        return guardrail_cap_bytes(max(1, int(round(flow_count))),
                                   self.ecn_threshold_packets,
                                   self.bdp_bytes, self.mss_bytes,
                                   headroom=self.headroom)

    def advise(self, predictor: IncastDegreePredictor) -> Optional[int]:
        """Recommended cap, or ``None`` when the service's degree history
        is too unstable (or too short) to act on."""
        forecast = predictor.forecast()
        if forecast.samples == 0 or not forecast.stable:
            return None
        return self.cap_for_degree(max(forecast.p99, 1.0))
