"""Per-burst and per-trace metric aggregation.

Collects the figures of merit that the paper's evaluation plots:
frequency, duration, flow count (Figure 2); queueing, ECN marking, and
retransmission behaviour (Figure 4); plus trace-level utilization and
incast fractions used in the prose.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro import units
from repro.core.bursts import Burst, burst_bounds, burst_frequency_hz
from repro.core.incast import INCAST_FLOW_THRESHOLD, LOW_MODE_CUTOFF_FLOWS
from repro.measurement.records import HostTrace


@dataclass(frozen=True)
class BurstMetrics:
    """Flat record of one burst's figures of merit.

    ``peak_queue_frac`` is the burst's own ground-truth peak occupancy;
    ``watermark_frac`` is what the production measurement would attribute
    to the burst — the switch's high-watermark counter, which is shared by
    every burst in the counter's window (Section 3.4 explains that ToRs
    record a per-minute high watermark; Figure 4a plots that value).
    """

    duration_ms: float
    max_active_flows: int
    mean_utilization: float
    marked_fraction: float
    retransmit_fraction: float
    peak_queue_frac: float
    watermark_frac: float
    total_bytes: int

    @classmethod
    def from_burst(cls, burst: Burst,
                   watermark_frac: float = 0.0) -> "BurstMetrics":
        """Extract metrics from a detected burst."""
        return cls(
            duration_ms=burst.duration_ms,
            max_active_flows=burst.max_active_flows,
            mean_utilization=burst.mean_utilization,
            marked_fraction=burst.marked_fraction,
            retransmit_fraction=burst.retransmit_fraction_of_line_rate,
            peak_queue_frac=burst.peak_queue_frac,
            watermark_frac=watermark_frac,
            total_bytes=burst.total_bytes,
        )


@dataclass(frozen=True, eq=False)
class TraceSummary:
    """One capture's burst-level summary: trace-level scalars and one
    column per burst metric (``n_bursts`` long, in burst order)."""

    service: str
    host_id: int
    snapshot_index: int
    n_bursts: int
    burst_frequency_hz: float
    mean_utilization: float
    incast_fraction: float
    low_mode_fraction: float
    #: Per-burst durations in milliseconds.
    durations_ms: np.ndarray
    #: Per-burst peak flow counts.
    flow_counts: np.ndarray
    #: Per-burst mean link utilizations.
    mean_utilizations: np.ndarray
    #: Per-burst ECN-marked byte fractions.
    marked_fractions: np.ndarray
    #: Per-burst retransmitted fractions of line rate.
    retransmit_fractions: np.ndarray
    #: Per-burst peak queue occupancy fractions (ground truth).
    peak_queue_fracs: np.ndarray
    #: Per-burst ingress bytes.
    total_bytes: np.ndarray
    #: The capture's high-watermark queue occupancy, which every one of its
    #: bursts reports (see :class:`BurstMetrics`).
    watermark_frac: float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceSummary):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name),
                                  getattr(other, f.name))
                   for f in fields(self))

    @property
    def watermark_fracs(self) -> np.ndarray:
        """Per-burst queue occupancy as a high-watermark counter reports it
        (Figure 4a's semantics)."""
        return np.full(self.n_bursts, self.watermark_frac)

    @property
    def bursts(self) -> tuple[BurstMetrics, ...]:
        """The columns as one :class:`BurstMetrics` row per burst (plain
        Python ``int`` / ``float`` fields), built on each read."""
        rows = zip(*(column.tolist() for column in (
            self.durations_ms, self.flow_counts, self.mean_utilizations,
            self.marked_fractions, self.retransmit_fractions,
            self.peak_queue_fracs, self.total_bytes)))
        # BurstMetrics' field order, the shared watermark before the bytes.
        return tuple(BurstMetrics(*row[:-1], self.watermark_frac, row[-1])
                     for row in rows)

    def mean_flow_count(self) -> float:
        """Mean per-burst flow count (Figure 3's y-axis)."""
        flows = self.flow_counts
        return float(flows.mean()) if flows.size else 0.0


def summarize_trace(trace: HostTrace) -> TraceSummary:
    """Detect bursts in ``trace`` and aggregate their metrics.

    Per-trace array work on the run bounds, with no :class:`Burst` object:
    each per-burst sum and maximum is one ``reduceat`` over a trace column
    at the bounds, and every value equals what
    :meth:`BurstMetrics.from_burst` and the per-burst functions of
    :mod:`repro.core.incast` derive burst by burst.
    """
    # [s0, e0, s1, e1, ...] strictly increases: reduceat's even segments
    # are the bursts, its odd ones the gaps.
    bounds = burst_bounds(trace)
    lengths = bounds[1::2] - bounds[::2]
    n = len(lengths)
    if n and bounds[-1] == trace.n_intervals:
        bounds = bounds[:-1]  # not an index; the last segment runs to the end

    def per_burst(ufunc: np.ufunc, column: np.ndarray) -> np.ndarray:
        return ufunc.reduceat(column, bounds)[::2]

    def share(selected: np.ndarray) -> float:
        return int(np.count_nonzero(selected)) / n if n else 0.0

    has_queue = trace.queue_frac is not None and len(trace.queue_frac) > 0
    total = per_burst(np.add, trace.ingress_bytes)
    flows = per_burst(np.maximum, trace.active_flows)
    # Every interval of a detected burst is above the threshold, so totals
    # and capacities are positive and Burst's zero guards cannot fire.
    capacity = lengths * trace.interval_capacity_bytes
    return TraceSummary(
        service=trace.meta.service,
        host_id=trace.meta.host_id,
        snapshot_index=trace.meta.snapshot_index,
        n_bursts=n,
        burst_frequency_hz=burst_frequency_hz(trace, lengths),
        mean_utilization=trace.mean_utilization(),
        incast_fraction=share(flows >= INCAST_FLOW_THRESHOLD),
        low_mode_fraction=share(flows < LOW_MODE_CUTOFF_FLOWS),
        durations_ms=lengths * trace.interval_ns / units.NS_PER_MS,
        flow_counts=flows,
        mean_utilizations=total / capacity,
        marked_fractions=per_burst(np.add, trace.marked_bytes) / total,
        retransmit_fractions=per_burst(np.add, trace.retransmit_bytes)
        / capacity,
        peak_queue_fracs=(per_burst(np.maximum, trace.queue_frac)
                          if has_queue else np.zeros(n)),
        total_bytes=total,
        # High-watermark semantics: every burst in the counter window
        # reports the window's maximum occupancy (the trace sits inside
        # one window).
        watermark_frac=float(trace.queue_frac.max()) if has_queue else 0.0,
    )
