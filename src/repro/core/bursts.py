"""Burst detection (the paper's Section 3.1 definition).

A *burst* is any contiguous span of sampling intervals during which the
average aggregate ingress rate, measured at the receiver at 1 ms
granularity, exceeds 50% of the NIC line rate. Everything downstream — the
frequency/duration/flow-count CDFs of Figure 2, the marking and
retransmission CDFs of Figure 4 — is computed per detected burst.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass

import numpy as np

from repro import units
from repro.measurement.records import HostTrace

BURST_UTILIZATION_THRESHOLD = 0.5
"""Fraction of line rate above which an interval belongs to a burst."""


@dataclass(frozen=True)
class Burst:
    """One detected burst: interval index range ``[start, end)`` of a trace.

    All per-burst figures of merit are derived lazily from the owning
    trace's arrays, so a :class:`Burst` is just a labelled slice.
    """

    trace: HostTrace
    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end <= self.trace.n_intervals:
            raise ValueError(
                f"invalid burst bounds [{self.start}, {self.end}) for trace "
                f"of {self.trace.n_intervals} intervals")

    # --- extent -----------------------------------------------------------

    @property
    def n_intervals(self) -> int:
        """Number of sampling intervals the burst spans."""
        return self.end - self.start

    @property
    def duration_ms(self) -> float:
        """Burst duration in milliseconds (1 interval = the measurement
        floor: bursts shorter than one interval are indistinguishable)."""
        return self.n_intervals * self.trace.interval_ns / units.NS_PER_MS

    # --- volume ------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Ingress bytes carried by the burst."""
        return int(self.trace.ingress_bytes[self.start:self.end].sum())

    @property
    def marked_bytes(self) -> int:
        """ECN CE-marked ingress bytes within the burst."""
        return int(self.trace.marked_bytes[self.start:self.end].sum())

    @property
    def retransmit_bytes(self) -> int:
        """Retransmitted ingress bytes within the burst."""
        return int(self.trace.retransmit_bytes[self.start:self.end].sum())

    # --- rates and fractions ----------------------------------------------------

    @property
    def mean_utilization(self) -> float:
        """Mean ingress rate during the burst as a fraction of line rate."""
        return float(self.total_bytes
                     / (self.n_intervals * self.trace.interval_capacity_bytes))

    @property
    def marked_fraction(self) -> float:
        """Fraction of the burst's bytes that were CE-marked (Figure 4b)."""
        total = self.total_bytes
        return self.marked_bytes / total if total else 0.0

    @property
    def retransmit_fraction_of_line_rate(self) -> float:
        """Retransmitted volume as a fraction of what the line could have
        carried over the burst (Figure 4c's y-axis)."""
        capacity = self.n_intervals * self.trace.interval_capacity_bytes
        return self.retransmit_bytes / capacity if capacity else 0.0

    # --- flows and queueing -------------------------------------------------------

    @property
    def max_active_flows(self) -> int:
        """Peak 1 ms active flow count during the burst (Figure 2c)."""
        return int(self.trace.active_flows[self.start:self.end].max())

    @property
    def mean_active_flows(self) -> float:
        """Mean 1 ms active flow count during the burst."""
        return float(self.trace.active_flows[self.start:self.end].mean())

    @property
    def peak_queue_frac(self) -> float:
        """Peak bottleneck queue occupancy during the burst, as a fraction
        of the *configured* capacity (Figure 4a): under buffer contention
        it tops out at the effective capacity's share, below 1. Zero when
        the trace carries no queue ground truth."""
        if self.trace.queue_frac is None:
            return 0.0
        return float(self.trace.queue_frac[self.start:self.end].max())

    def __repr__(self) -> str:
        return (f"Burst([{self.start},{self.end})ms, "
                f"flows<={self.max_active_flows}, "
                f"util={self.mean_utilization:.0%})")


def burst_bounds(trace: HostTrace,
                 threshold_frac: float = BURST_UTILIZATION_THRESHOLD
                 ) -> np.ndarray:
    """The bursts of ``trace`` as run bounds ``[s0, e0, s1, e1, ...]``.

    Burst ``i`` is the maximal run ``[s_i, e_i)`` of consecutive intervals
    whose utilization exceeds ``threshold_frac`` of line rate; runs are in
    time order, so the bounds strictly increase.
    """
    if not 0.0 < threshold_frac < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold_frac}")
    above = trace.utilization() > threshold_frac
    # Run-length encode the boolean mask.
    padded = np.concatenate(([False], above, [False]))
    return np.flatnonzero(padded[1:] != padded[:-1])


def detect_bursts(trace: HostTrace,
                  threshold_frac: float = BURST_UTILIZATION_THRESHOLD
                  ) -> list[Burst]:
    """Find all bursts in ``trace``: one :class:`Burst` per run of
    :func:`burst_bounds`, in time order."""
    bounds = burst_bounds(trace, threshold_frac).tolist()
    return [Burst(trace, s, e) for s, e in zip(bounds[::2], bounds[1::2])]


def burst_frequency_hz(trace: HostTrace,
                       bursts: Sized | None = None) -> float:
    """Bursts per second observed in ``trace`` (Figure 2a's x-axis).

    ``bursts`` is the trace's bursts, or anything with one entry per burst
    (defaults to :func:`detect_bursts`).
    """
    if bursts is None:
        bursts = detect_bursts(trace)
    duration_s = trace.duration_ns / units.NS_PER_S
    return len(bursts) / duration_s if duration_s > 0 else 0.0
