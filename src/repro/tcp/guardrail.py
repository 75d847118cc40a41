"""CWND guardrails driven by predicted incast degree (Section 5.1).

The paper's measurement study shows per-service incast degree is stable and
therefore predictable (Section 3.3), and its discussion proposes "simple
guardrails that prevent TCP from ramping up excessively during incast".
This module implements that design direction:

- :func:`mode1_budget_bytes` is the healthy Mode-1 in-flight budget, the
  one both the ``guardrail`` and ``ictcp`` schemes divide across flows;
- :func:`guardrail_cap_bytes` computes the largest per-flow window that
  keeps the aggregate in-flight data of a K-flow incast at or below the ECN
  marking threshold plus the BDP (the healthy Mode-1 operating region).
- :class:`CwndGuardrail` wraps any CCA and clamps its *effective* window to
  that cap, leaving the inner algorithm's dynamics (and its responsiveness
  to genuine bandwidth changes) untouched.

The ``guardrail`` scheme (:mod:`repro.tcp.schemes.guardrail`) installs it;
Ablation B in :mod:`repro.experiments.ablations` measures the effect.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.packet import TCP_IP_HEADER_BYTES
from repro.tcp.cca.base import CongestionControl


def mode1_budget_bytes(ecn_threshold_packets: int, bdp_bytes: int,
                       mss_bytes: int) -> int:
    """In-flight bytes the bottleneck holds before sustained marking:
    ``ecn_threshold_packets`` full segments (with headers) of queue plus
    the path BDP — the healthy Mode-1 region."""
    return (ecn_threshold_packets * (mss_bytes + TCP_IP_HEADER_BYTES)
            + bdp_bytes)


def guardrail_cap_bytes(flow_count: int, ecn_threshold_packets: int,
                        bdp_bytes: int, mss_bytes: int,
                        headroom: float = 1.0) -> int:
    """Per-flow CWND cap that keeps a ``flow_count``-strong incast healthy.

    Dividing :func:`mode1_budget_bytes` across flows gives the fair
    per-flow window. The result is floored at one MSS — below K* flows the
    floor binds and the guardrail cannot help (the degenerate point,
    Section 4.1.2).

    Args:
        flow_count: Predicted incast degree (e.g. a service's p99).
        ecn_threshold_packets: Switch marking threshold, in packets.
        bdp_bytes: Bandwidth-delay product of the bottleneck path.
        mss_bytes: Segment size.
        headroom: Multiplier on the budget (>1 trades latency for ramp-up).
    """
    if flow_count <= 0:
        raise ValueError(f"flow_count must be positive, got {flow_count}")
    budget = mode1_budget_bytes(ecn_threshold_packets, bdp_bytes, mss_bytes)
    return max(mss_bytes, int(headroom * budget / flow_count))


class CwndGuardrail(CongestionControl):
    """Clamp a wrapped CCA's effective window to a fixed cap.

    All congestion events pass through to the inner algorithm; only the
    window the sender *enforces* is clamped. The inner CCA therefore keeps
    learning (alpha keeps updating for DCTCP) and regains full freedom the
    moment the cap is lifted via :attr:`cap_bytes`.
    """

    name = "guardrail"

    def __init__(self, inner: CongestionControl, cap_bytes: int):
        if cap_bytes < inner.config.mss_bytes:
            raise ValueError("cap must be at least one MSS")
        self._inner = inner
        self.cap_bytes = cap_bytes
        super().__init__(inner.config)

    # The wrapped CCA owns the real window state; expose it transparently.

    @property
    def cwnd_bytes(self) -> float:  # type: ignore[override]
        """The inner algorithm's congestion window."""
        return self._inner.cwnd_bytes

    @cwnd_bytes.setter
    def cwnd_bytes(self, value: float) -> None:
        """Write through to the inner algorithm's window."""
        self._inner.cwnd_bytes = value

    @property
    def ssthresh_bytes(self) -> float:  # type: ignore[override]
        """The inner algorithm's slow-start threshold."""
        return self._inner.ssthresh_bytes

    @ssthresh_bytes.setter
    def ssthresh_bytes(self, value: float) -> None:
        """Write through to the inner algorithm's threshold."""
        self._inner.ssthresh_bytes = value

    @property
    def inner(self) -> CongestionControl:
        """The wrapped algorithm."""
        return self._inner

    def effective_cwnd_bytes(self) -> float:
        """The inner window, clamped to the guardrail cap."""
        capped = min(self._inner.effective_cwnd_bytes(),
                     float(max(self.cap_bytes, self.mss)))
        return capped

    def pacing_interval_ns(self, srtt_ns: Optional[float]) -> Optional[int]:
        """Delegate pacing to the inner algorithm."""
        return self._inner.pacing_interval_ns(srtt_ns)

    def on_ack(self, bytes_acked: int, ece: bool, snd_una: int, snd_nxt: int,
               now_ns: int) -> None:
        """Delegate to the inner algorithm."""
        self._inner.on_ack(bytes_acked, ece, snd_una, snd_nxt, now_ns)

    def on_loss(self, now_ns: int) -> None:
        """Delegate to the inner algorithm."""
        self._inner.on_loss(now_ns)

    def on_rto(self, now_ns: int) -> None:
        """Delegate to the inner algorithm."""
        self._inner.on_rto(now_ns)

    def on_rtt_sample(self, rtt_ns: int, now_ns: int) -> None:
        """Delegate to the inner algorithm."""
        self._inner.on_rtt_sample(rtt_ns, now_ns)

    def on_restart_after_idle(self) -> None:
        """Delegate to the inner algorithm."""
        self._inner.on_restart_after_idle()

    def __repr__(self) -> str:
        return f"CwndGuardrail(cap={self.cap_bytes}B, inner={self._inner!r})"
