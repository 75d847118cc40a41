"""Stability of incast-degree distributions (Section 3.3, Figure 3).

The paper's most actionable finding: for each service, the distribution of
flow counts during bursts barely changes over 18 hours or across the
service's hosts. This module quantifies that claim:

- :func:`temporal_stability` — per-snapshot mean/p99 flow count over a
  campaign (Figure 3a) plus a coefficient-of-variation stability score;
- :func:`cross_host_stability` — per-host mean/p99 (Figure 3b);
- :func:`split_regimes` — detects two-mode operation ("video" alternating
  between ~225 and ~275 flows) with a 1-D two-means split.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.metrics import TraceSummary


@dataclass(frozen=True)
class StabilityReport:
    """Mean/p99 flow count per group (snapshot or host)."""

    group_label: str
    group_keys: tuple[int, ...]
    means: np.ndarray
    p99s: np.ndarray

    @property
    def mean_of_means(self) -> float:
        """Grand mean of the per-group means."""
        return float(self.means.mean()) if self.means.size else 0.0

    @property
    def cov_of_means(self) -> float:
        """Coefficient of variation of per-group means — the stability
        score (small = stable = predictable)."""
        if self.means.size == 0 or self.means.mean() == 0:
            return 0.0
        return float(self.means.std() / self.means.mean())

    @property
    def cov_of_p99s(self) -> float:
        """Coefficient of variation of per-group p99s (worst-case
        predictability, the quantity Section 3.3 highlights)."""
        if self.p99s.size == 0 or self.p99s.mean() == 0:
            return 0.0
        return float(self.p99s.std() / self.p99s.mean())

    def is_stable(self, cov_threshold: float = 0.25) -> bool:
        """Whether per-group means stay within ``cov_threshold`` relative
        dispersion."""
        return self.cov_of_means <= cov_threshold

    def export_dict(self) -> dict:
        """JSON-export summary (consumed by :mod:`repro.analysis.export`)."""
        return {
            "group_label": self.group_label,
            "group_keys": list(self.group_keys),
            "means": self.means,
            "p99s": self.p99s,
            "mean_of_means": self.mean_of_means,
            "cov_of_means": self.cov_of_means,
            "cov_of_p99s": self.cov_of_p99s,
            "stable": self.is_stable(),
        }


def _grouped_flow_stats(summaries: list[TraceSummary],
                        key_fn, label: str) -> StabilityReport:
    grouped: dict[int, list[int]] = defaultdict(list)
    for summary in summaries:
        grouped[key_fn(summary)].extend(summary.flow_counts.tolist())
    keys = sorted(grouped)
    means, p99s = [], []
    for key in keys:
        flows = np.asarray(grouped[key], dtype=np.float64)
        if flows.size == 0:
            means.append(0.0)
            p99s.append(0.0)
        else:
            means.append(float(flows.mean()))
            p99s.append(float(np.percentile(flows, 99)))
    return StabilityReport(label, tuple(keys), np.asarray(means),
                           np.asarray(p99s))


def temporal_stability(summaries: list[TraceSummary]) -> StabilityReport:
    """Per-snapshot flow-count stability (Figure 3a): group one service's
    trace summaries by snapshot index and track mean/p99 over time."""
    return _grouped_flow_stats(summaries, lambda s: s.snapshot_index,
                               "snapshot")


def cross_host_stability(summaries: list[TraceSummary]) -> StabilityReport:
    """Per-host flow-count stability (Figure 3b): group one service's trace
    summaries by host and compare mean/p99 across hosts."""
    return _grouped_flow_stats(summaries, lambda s: s.host_id, "host")


def split_regimes(values: np.ndarray, max_iterations: int = 50
                  ) -> tuple[float, float, np.ndarray]:
    """Two-means split of a 1-D series.

    Returns ``(low_center, high_center, assignment)`` where ``assignment``
    maps each value to regime 0 (low) or 1 (high). Used to recover the
    "video" service's two operating modes from its per-snapshot means.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0, 0.0, np.zeros(0, dtype=np.int64)
    low, high = float(values.min()), float(values.max())
    if low == high:
        return low, high, np.zeros(values.size, dtype=np.int64)
    for _ in range(max_iterations):
        assignment = (np.abs(values - high)
                      < np.abs(values - low)).astype(np.int64)
        new_low = float(values[assignment == 0].mean()) \
            if (assignment == 0).any() else low
        new_high = float(values[assignment == 1].mean()) \
            if (assignment == 1).any() else high
        if new_low == low and new_high == high:
            break
        low, high = new_low, new_high
    return low, high, assignment


def regime_separation(values: np.ndarray) -> float:
    """Relative separation of the two regimes found by
    :func:`split_regimes`: ``(high - low) / mean``. Near zero for
    single-regime services, ~0.2 for "video"'s 225/275 modes."""
    low, high, _ = split_regimes(np.asarray(values))
    mean = np.mean(values) if len(values) else 0.0
    return float((high - low) / mean) if mean else 0.0
