"""The Millisampler data model.

Millisampler (Ghabashneh et al., IMC 2022) records, per host and per 1 ms
interval, the ingress byte count, the number of distinct active flows, the
bytes carried by ECN CE-marked packets, and the bytes identified as TCP
retransmissions. A :class:`HostTrace` holds one contiguous capture (the
paper uses 2-second captures) as dense numpy arrays plus capture metadata.

Synthetic traces produced by the fleet model additionally carry the ToR
queue occupancy fraction per interval — ground truth the production tool
does not see but which the switch watermark counters approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import units

DEFAULT_INTERVAL_NS = units.msec(1.0)


@dataclass(frozen=True)
class TraceMeta:
    """Identity of one capture: which host, which service, when."""

    service: str
    host_id: int
    snapshot_index: int = 0
    snapshot_time_s: float = 0.0


class HostTrace:
    """One host's interval-sampled ingress trace.

    Attributes:
        meta: Capture identity.
        line_rate_bps: The host NIC's line rate.
        interval_ns: Sampling interval (1 ms in the paper).
        ingress_bytes: Per-interval ingress byte counts.
        active_flows: Per-interval count of distinct flows seen.
        marked_bytes: Per-interval bytes arriving with ECN CE set.
        retransmit_bytes: Per-interval bytes identified as retransmissions.
        queue_frac: Optional per-interval bottleneck queue occupancy as a
            fraction of the *configured* capacity, so it tops out at the
            effective capacity's share under buffer contention (synthetic
            traces only).
    """

    def __init__(self, meta: TraceMeta, line_rate_bps: float,
                 ingress_bytes: np.ndarray, active_flows: np.ndarray,
                 marked_bytes: np.ndarray, retransmit_bytes: np.ndarray,
                 interval_ns: int = DEFAULT_INTERVAL_NS,
                 queue_frac: Optional[np.ndarray] = None):
        if line_rate_bps <= 0:
            raise ValueError("line rate must be positive")
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        n = len(ingress_bytes)
        for name, arr in (("active_flows", active_flows),
                          ("marked_bytes", marked_bytes),
                          ("retransmit_bytes", retransmit_bytes)):
            if len(arr) != n:
                raise ValueError(f"{name} length {len(arr)} != {n}")
        if queue_frac is not None and len(queue_frac) != n:
            raise ValueError("queue_frac length mismatch")
        self.meta = meta
        self.line_rate_bps = line_rate_bps
        self.interval_ns = interval_ns
        self.ingress_bytes = np.asarray(ingress_bytes, dtype=np.int64)
        self.active_flows = np.asarray(active_flows, dtype=np.int64)
        self.marked_bytes = np.asarray(marked_bytes, dtype=np.int64)
        self.retransmit_bytes = np.asarray(retransmit_bytes, dtype=np.int64)
        self.queue_frac = (None if queue_frac is None
                           else np.asarray(queue_frac, dtype=np.float64))

    # --- size / time ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ingress_bytes)

    @property
    def n_intervals(self) -> int:
        """Number of sampling intervals in the capture."""
        return len(self.ingress_bytes)

    @property
    def duration_ns(self) -> int:
        """Total capture duration."""
        return self.n_intervals * self.interval_ns

    @property
    def times_ms(self) -> np.ndarray:
        """Interval start times, in milliseconds from capture start."""
        return (np.arange(self.n_intervals)
                * (self.interval_ns / units.NS_PER_MS))

    # --- rates ---------------------------------------------------------------

    @property
    def interval_capacity_bytes(self) -> float:
        """Bytes one interval can carry at line rate."""
        return self.line_rate_bps * self.interval_ns / (
            units.BITS_PER_BYTE * units.NS_PER_S)

    def utilization(self) -> np.ndarray:
        """Per-interval ingress rate as a fraction of line rate."""
        return self.ingress_bytes / self.interval_capacity_bytes

    def ingress_rate_gbps(self) -> np.ndarray:
        """Per-interval ingress rate in Gbps."""
        return (self.ingress_bytes * units.BITS_PER_BYTE
                / self.interval_ns * units.NS_PER_S / units.GBPS)

    def marked_rate_gbps(self) -> np.ndarray:
        """Per-interval ECN-marked ingress rate in Gbps."""
        return (self.marked_bytes * units.BITS_PER_BYTE
                / self.interval_ns * units.NS_PER_S / units.GBPS)

    def retransmit_rate_gbps(self) -> np.ndarray:
        """Per-interval retransmitted ingress rate in Gbps."""
        return (self.retransmit_bytes * units.BITS_PER_BYTE
                / self.interval_ns * units.NS_PER_S / units.GBPS)

    def mean_utilization(self) -> float:
        """Average link utilization over the capture (the paper's example
        trace averages ~10.6%)."""
        return float(self.utilization().mean())

    def __repr__(self) -> str:
        return (f"HostTrace({self.meta.service}/host{self.meta.host_id}"
                f"/snap{self.meta.snapshot_index}, {self.n_intervals} x "
                f"{self.interval_ns / units.NS_PER_MS:g} ms, "
                f"util={self.mean_utilization():.1%})")
