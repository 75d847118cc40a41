"""Time-series helpers for the simulation figures.

Figures 5 and 6 average queue-length traces across the ten steady bursts
of an experiment. These helpers do the resampling and averaging.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def resample_mean(times_ns: np.ndarray, values: np.ndarray,
                  bin_ns: int, start_ns: int = 0,
                  end_ns: int | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Average ``values`` into fixed bins of ``bin_ns``.

    Returns ``(bin_start_times, bin_means)``; empty bins yield NaN so gaps
    stay visible rather than silently interpolating.
    """
    if bin_ns <= 0:
        raise ValueError("bin size must be positive")
    times_ns = np.asarray(times_ns, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if end_ns is None:
        end_ns = int(times_ns[-1]) + 1 if times_ns.size else start_ns + bin_ns
    n_bins = max(1, -(-(end_ns - start_ns) // bin_ns))
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins)
    mask = (times_ns >= start_ns) & (times_ns < end_ns)
    indices = (times_ns[mask] - start_ns) // bin_ns
    np.add.at(sums, indices, values[mask])
    np.add.at(counts, indices, 1)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    bin_times = start_ns + np.arange(n_bins) * bin_ns
    return bin_times, means


def align_and_average(segments: Sequence[tuple[np.ndarray, np.ndarray]],
                      bin_ns: int, span_ns: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Average several ``(times, values)`` segments after aligning each to
    its own t=0, the way Figure 5 averages the final ten bursts.

    Each segment's times must already be relative to its burst start.
    Returns ``(offsets, mean_across_segments)``; bins missing in a segment
    are ignored for that segment.
    """
    n_bins = max(1, -(-span_ns // bin_ns))
    total = np.zeros(n_bins)
    count = np.zeros(n_bins)
    for times, values in segments:
        _, means = resample_mean(times, values, bin_ns, 0, span_ns)
        valid = ~np.isnan(means)
        total[valid] += means[valid]
        count[valid] += 1
    with np.errstate(invalid="ignore"):
        averaged = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    offsets = np.arange(n_bins) * bin_ns
    return offsets, averaged
