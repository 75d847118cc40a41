"""Empirical cumulative distribution functions.

Each sample in the paper's CDFs corresponds to one burst (Figures 2 and 4)
or one trace (Figure 2a). :class:`EmpiricalCdf` wraps a sample set with the
queries those figures need: evaluation at arbitrary points, percentiles,
and tail-focused summaries (Figure 4's panels start their y-axes at p50 and
p95 precisely because the action is in the tail).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

EXPORT_PERCENTILES = (1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0)
"""The percentile grid every CDF export carries."""

_EXPORT_KEYS = tuple(f"p{p:g}" for p in EXPORT_PERCENTILES)


def inverted_cdf_indices(n, percentiles) -> np.ndarray:
    """Sorted-sample index of each of ``percentiles`` (0-100) in a sample
    set of ``n``: ``max(0, ceil(n * (p / 100) - 1))``, numpy's
    ``method="inverted_cdf"`` rule.

    ``n`` may be an int or an array of set sizes and ``percentiles`` a
    scalar or a sequence; the result has shape ``shape(n) +
    shape(percentiles)``. Every percentile of the package is an index
    from here, so a single query and a grid-wide gather pick the same
    sample to the bit."""
    fractions = np.asarray(percentiles, dtype=np.float64) / 100.0
    return np.maximum(np.ceil(np.multiply.outer(n, fractions) - 1.0),
                      0.0).astype(np.intp)


def sample_mean(values: np.ndarray) -> float:
    """Mean of a non-empty float64 array: ``np.mean``'s own arithmetic
    (one pairwise ``np.add.reduce``, then one division by ``n``) without
    its Python-level wrapper, so the result is bit-identical to
    ``float(np.mean(values))``."""
    return float(np.add.reduce(values)) / len(values)


def export_summary(name: str, n: int, mean: Optional[float],
                   percentiles: Sequence[float]) -> dict:
    """The JSON layout of one distribution: ``{name, n, mean,
    percentiles}`` with ``percentiles`` the values at
    :data:`EXPORT_PERCENTILES`, in order. An empty set exports ``mean:
    None`` and no percentile entries — visibly absent rather than a
    fabricated zero."""
    if not n:
        return {"name": name, "n": 0, "mean": None, "percentiles": {}}
    return {"name": name, "n": n, "mean": mean,
            "percentiles": dict(zip(_EXPORT_KEYS, percentiles))}


class EmpiricalCdf:
    """An empirical CDF over a fixed sample set."""

    def __init__(self, samples: Iterable[float], name: str = ""):
        if not isinstance(samples, np.ndarray):
            samples = list(samples)   # generic iterables; arrays go direct
        values = np.asarray(samples, dtype=np.float64)
        if np.isnan(values).any():
            raise ValueError(
                f"EmpiricalCdf({name or 'unnamed'}): NaN samples are not "
                f"meaningful in a CDF; filter them before construction")
        self._sorted = np.sort(values)
        self.name = name

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def values(self) -> np.ndarray:
        """The sorted sample values."""
        return self._sorted

    def evaluate(self, x: float) -> float:
        """P(sample <= x). Zero for an empty sample set."""
        if len(self._sorted) == 0:
            return 0.0
        return float(np.searchsorted(self._sorted, x, side="right")
                     / len(self._sorted))

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100).

        Raises :class:`ValueError` on an empty sample set: an empty
        distribution has no percentiles, and the old ``0.0`` fallback
        rendered as a fake "0 ms" measurement in exports and tables.
        Callers that may hold empty sets must guard with ``len(cdf)``
        (as :func:`repro.analysis.fct.format_fct_table` and
        :func:`repro.analysis.tables.render_cdf_table` do).

        The answer is always an observed sample and agrees with
        :meth:`evaluate`: it is the sorted sample at
        :func:`inverted_cdf_indices` — numpy's ``method="inverted_cdf"``
        rule in the same float64 operations, as O(1) index arithmetic on
        the array ``__init__`` sorted. Linear
        interpolation (numpy's default) invents values between samples, so
        ``evaluate(percentile(p))`` could disagree with ``p`` — wrong for
        an *empirical* distribution.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if len(self._sorted) == 0:
            raise ValueError(
                f"EmpiricalCdf({self.name or 'unnamed'}): percentile of an "
                f"empty sample set is undefined; guard with len(cdf)")
        return float(self._sorted[inverted_cdf_indices(len(self._sorted),
                                                       p)])

    def median(self) -> float:
        """The 50th percentile."""
        return self.percentile(50.0)

    def export_dict(self) -> dict:
        """JSON-export summary (:func:`export_summary`'s layout, consumed
        by :mod:`repro.analysis.export`): sample count, mean, and the
        :data:`EXPORT_PERCENTILES` grid, one gather at :meth:`percentile`'s
        own indices and one ``tolist()``."""
        n = len(self._sorted)
        if n == 0:
            return export_summary(self.name, 0, None, ())
        return export_summary(
            self.name, n, self.mean(),
            self._sorted[inverted_cdf_indices(n, EXPORT_PERCENTILES)
                         ].tolist())

    def mean(self) -> float:
        """Sample mean (:func:`sample_mean`). Zero for an empty sample
        set."""
        return sample_mean(self._sorted) if len(self._sorted) else 0.0

    def curve(self, n_points: int = 200
              ) -> tuple[np.ndarray, np.ndarray]:
        """``(x, F(x))`` arrays for plotting the full CDF curve."""
        if len(self._sorted) == 0:
            return np.zeros(0), np.zeros(0)
        n = len(self._sorted)
        if n <= n_points:
            x = self._sorted
            y = np.arange(1, n + 1) / n
        else:
            idx = np.linspace(0, n - 1, n_points).astype(int)
            x = self._sorted[idx]
            y = (idx + 1) / n
        return x, y

    def __repr__(self) -> str:
        if len(self._sorted) == 0:
            return f"EmpiricalCdf({self.name or 'unnamed'}, n=0)"
        return (f"EmpiricalCdf({self.name or 'unnamed'}, n={len(self)}, "
                f"median={self.median():.3g})")
