"""Round-trip-time estimation (RFC 6298).

Maintains the smoothed RTT and RTT variance and derives the retransmission
timeout. Senders take one sample per window using Karn's algorithm (samples
from retransmitted segments are discarded); that logic lives in the sender,
this class only does the arithmetic.
"""

from __future__ import annotations

from typing import Optional

ALPHA = 1.0 / 8.0
"""Smoothing gain for SRTT (RFC 6298)."""

BETA = 1.0 / 4.0
"""Smoothing gain for RTTVAR (RFC 6298)."""


class RttEstimator:
    """SRTT/RTTVAR tracker with RTO derivation."""

    def __init__(self, initial_rto_ns: int, min_rto_ns: int, max_rto_ns: int):
        if not 0 < min_rto_ns <= max_rto_ns:
            raise ValueError("require 0 < min_rto_ns <= max_rto_ns")
        self._min_rto_ns = min_rto_ns
        self._max_rto_ns = max_rto_ns
        self._srtt_ns: Optional[float] = None
        self._rttvar_ns = 0.0
        self.samples = 0
        self.min_rtt_ns: Optional[int] = None
        self.last_rtt_ns: Optional[int] = None
        # The RTO only changes when a sample arrives but is read on every
        # ACK, so it is derived here and in sample().
        self._rto_ns = max(min_rto_ns, min(initial_rto_ns, max_rto_ns))

    @property
    def srtt_ns(self) -> Optional[float]:
        """Smoothed RTT, or ``None`` before the first sample."""
        return self._srtt_ns

    @property
    def rttvar_ns(self) -> float:
        """RTT variance estimate."""
        return self._rttvar_ns

    def sample(self, rtt_ns: int) -> int:
        """Fold one RTT measurement into the estimator; returns the new
        :meth:`rto_ns`."""
        if rtt_ns <= 0:
            raise ValueError(f"RTT sample must be positive, got {rtt_ns}")
        self.samples += 1
        self.last_rtt_ns = rtt_ns
        if self.min_rtt_ns is None or rtt_ns < self.min_rtt_ns:
            self.min_rtt_ns = rtt_ns
        if self._srtt_ns is None:
            self._srtt_ns = float(rtt_ns)
            self._rttvar_ns = rtt_ns / 2.0
        else:
            self._rttvar_ns = ((1.0 - BETA) * self._rttvar_ns
                               + BETA * abs(self._srtt_ns - rtt_ns))
            self._srtt_ns = (1.0 - ALPHA) * self._srtt_ns + ALPHA * rtt_ns
        base = int(self._srtt_ns + max(4.0 * self._rttvar_ns, 1.0))
        self._rto_ns = max(self._min_rto_ns, min(base, self._max_rto_ns))
        return self._rto_ns

    def rto_ns(self) -> int:
        """Current retransmission timeout, clamped to the configured range."""
        return self._rto_ns
