"""The congestion-control interface.

A :class:`CongestionControl` instance belongs to exactly one sender. The
sender reports protocol events; the CCA exposes the congestion window (and,
for paced algorithms, an inter-packet gap). Window units are bytes; the
window may be fractional internally but is floored at one MSS for
window-mode senders — the "degenerate point" floor whose consequences
Section 4.1 of the paper analyzes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.tcp.config import TcpConfig

SSTHRESH_INFINITE = float("inf")


class CongestionControl(ABC):
    """Base class for congestion-control algorithms.

    Attributes:
        config: The owning connection's TCP configuration.
        cwnd_bytes: Current congestion window (bytes, float).
        ssthresh_bytes: Slow-start threshold (bytes).
    """

    #: Human-readable algorithm name, overridden by subclasses.
    name = "base"

    def __init__(self, config: TcpConfig):
        self.config = config
        self.cwnd_bytes: float = float(config.init_cwnd_bytes)
        self.ssthresh_bytes: float = SSTHRESH_INFINITE

    # --- queries ---------------------------------------------------------

    @property
    def mss(self) -> int:
        """Maximum segment size in bytes."""
        return self.config.mss_bytes

    @property
    def in_slow_start(self) -> bool:
        """Whether the window is below the slow-start threshold."""
        return self.cwnd_bytes < self.ssthresh_bytes

    def effective_cwnd_bytes(self) -> float:
        """The window the sender enforces: floored at one MSS (senders
        cannot back off below a single segment in window mode) and capped
        by any configured maximum."""
        config = self.config  # read on every ACK: no property calls
        cwnd = max(self.cwnd_bytes, float(config.mss_bytes))
        if config.max_cwnd_bytes is not None:
            cwnd = min(cwnd, float(config.max_cwnd_bytes))
        return cwnd

    def pacing_interval_ns(self, srtt_ns: Optional[float]) -> Optional[int]:
        """Inter-packet send gap for paced operation, or ``None`` to use
        pure window-mode sending. Window-based CCAs return ``None``."""
        return None

    # --- event handlers ----------------------------------------------------

    @abstractmethod
    def on_ack(self, bytes_acked: int, ece: bool, snd_una: int, snd_nxt: int,
               now_ns: int) -> None:
        """A cumulative ACK advanced ``snd_una`` by ``bytes_acked`` (0 for a
        duplicate ACK) with the TCP ECE flag set to ``ece``."""

    @abstractmethod
    def on_loss(self, now_ns: int) -> None:
        """Fast retransmit fired (entering loss recovery)."""

    @abstractmethod
    def on_rto(self, now_ns: int) -> None:
        """The retransmission timer expired."""

    def on_rtt_sample(self, rtt_ns: int, now_ns: int) -> None:
        """A fresh RTT measurement (delay-based CCAs override)."""

    def on_restart_after_idle(self) -> None:
        """Connection resumed after an idle period longer than the restart
        threshold and window validation is enabled
        (:attr:`TcpConfig.cwnd_restart_after_idle`). Per RFC 2861 the
        restart window is ``min(init_cwnd, cwnd)`` — restarting never
        *grows* the window."""
        self.cwnd_bytes = min(self.cwnd_bytes,
                              float(self.config.init_cwnd_bytes))

    # --- shared helpers ----------------------------------------------------

    def _grow_reno(self, bytes_acked: int) -> None:
        """Standard Reno growth: exponential in slow start, ~1 MSS per RTT
        in congestion avoidance."""
        config = self.config
        if self.cwnd_bytes < self.ssthresh_bytes:  # in_slow_start
            self.cwnd_bytes += bytes_acked
        else:
            self.cwnd_bytes += (config.mss_bytes * bytes_acked
                                / self.cwnd_bytes)
        if config.max_cwnd_bytes is not None:
            self.cwnd_bytes = min(self.cwnd_bytes,
                                  float(config.max_cwnd_bytes))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(cwnd={self.cwnd_bytes:.0f}B, "
                f"ssthresh={self.ssthresh_bytes})")
