"""Data Center TCP (DCTCP), the paper's subject CCA.

Implements the algorithm of Alizadeh et al. (SIGCOMM 2010) as deployed in
the Linux kernel and at Meta:

- The receiver echoes each packet's CE mark via the TCP ECE bit (with
  delayed ACKs disabled, per-packet; the receiver logic lives in
  :mod:`repro.tcp.connection`).
- The sender maintains ``alpha``, an EWMA of the fraction of acknowledged
  bytes that were marked, updated once per window of data with gain ``g``:
  ``alpha <- (1 - g) * alpha + g * F``.
- On the first ECE in a window the sender cuts multiplicatively but
  *proportionally to alpha*: ``cwnd <- cwnd * (1 - alpha / 2)``, at most
  once per window.
- Growth between marks, and reactions to loss and timeout, follow Reno.

The paper sets ``g = 1/16`` (from Equation 15 of the DCTCP paper). The
1-MSS window floor applied by the sender is what creates the "degenerate
point": with K flows, total in-flight data cannot drop below K segments, so
once K exceeds the marking threshold plus the BDP (in segments), the queue
can never drain below the threshold (Section 4.1.2).
"""

from __future__ import annotations

from repro.tcp.cca.base import CongestionControl
from repro.tcp.config import TcpConfig

DEFAULT_G = 1.0 / 16.0
"""The paper's alpha estimation gain."""


class Dctcp(CongestionControl):
    """DCTCP sender-side congestion control.

    Attributes:
        g: EWMA gain for the alpha estimator.
        alpha: Current estimate of the marked fraction (0..1).
    """

    name = "dctcp"

    def __init__(self, config: TcpConfig, g: float = DEFAULT_G,
                 initial_alpha: float = 1.0):
        if not 0.0 < g <= 1.0:
            raise ValueError(f"g must be in (0, 1], got {g}")
        if not 0.0 <= initial_alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {initial_alpha}")
        super().__init__(config)
        self.g = g
        self.alpha = initial_alpha
        self._acked_bytes_win = 0
        self._marked_bytes_win = 0
        self._window_end_seq = 0
        # Sequence up to which a window reduction already applies (CWR):
        # at most one proportional cut per window of data, and no growth
        # until that window has drained.
        self._cwr_end_seq = 0
        self.windows_completed = 0

    def on_ack(self, bytes_acked: int, ece: bool, snd_una: int, snd_nxt: int,
               now_ns: int) -> None:
        """Track marks, apply at most one proportional cut per window,
        grow Reno-style on unmarked ACKs, and close alpha windows.

        Runs on every ACK, so the proportional cut and the window close
        are written out here rather than called."""
        self._acked_bytes_win += bytes_acked
        if ece:
            self._marked_bytes_win += bytes_acked
            if snd_una > self._cwr_end_seq:
                # Proportional decrease: cwnd <- cwnd * (1 - alpha / 2).
                self.cwnd_bytes = max(
                    float(self.config.mss_bytes),
                    self.cwnd_bytes * (1.0 - self.alpha / 2.0))
                self.ssthresh_bytes = self.cwnd_bytes
                self._cwr_end_seq = snd_nxt
        elif bytes_acked > 0 and snd_una > self._cwr_end_seq:
            self._grow_reno(bytes_acked)
        if snd_una >= self._window_end_seq:
            # End of an alpha window: fold its marked fraction into alpha.
            if self._acked_bytes_win > 0:
                fraction = self._marked_bytes_win / self._acked_bytes_win
                self.alpha = (1.0 - self.g) * self.alpha + self.g * fraction
                self.windows_completed += 1
            self._acked_bytes_win = 0
            self._marked_bytes_win = 0
            self._window_end_seq = snd_nxt

    def on_loss(self, now_ns: int) -> None:
        """Halve the window (standard TCP loss response)."""
        # DCTCP falls back to standard TCP behaviour on packet loss.
        self.ssthresh_bytes = max(self.cwnd_bytes / 2.0, float(self.mss))
        self.cwnd_bytes = self.ssthresh_bytes

    def on_rto(self, now_ns: int) -> None:
        """Collapse to one MSS after a retransmission timeout."""
        self.ssthresh_bytes = max(self.cwnd_bytes / 2.0, 2.0 * self.mss)
        self.cwnd_bytes = float(self.mss)

    def __repr__(self) -> str:
        return (f"Dctcp(cwnd={self.cwnd_bytes:.0f}B, alpha={self.alpha:.3f}, "
                f"g={self.g:g})")
