"""ICTCP-like receiver-window incast throttling.

ICTCP (Wu et al., CoNEXT 2010) is one of the prior approaches the paper
surveys: the *receiver* adjusts each connection's advertised window so the
aggregate stays within what its access link can absorb. This module
implements that idea's essential mechanism so the repository can compare it
quantitatively against DCTCP alone and against sender-side guardrails:

- the controller owns a byte *budget* (defaulting to the healthy Mode 1
  region, the ECN threshold plus the path BDP);
- periodically, it counts connections that made delivery progress during
  the last period and divides the budget evenly across them;
- each active connection's advertised window is set to that share, and
  idle connections are parked at one MSS.

Crucially, the advertised window cannot fall below one MSS — the same
floor that creates DCTCP's degenerate point. Ablation M shows the
consequence: receiver-window throttling behaves like the guardrail at
moderate incast degrees and stops helping at exactly the same flow count,
supporting the paper's observation that the O(50)-flow designs (ICTCP
among them) do not reach today's hundreds-of-flows incasts.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.simcore.kernel import Simulator
from repro.tcp.connection import TcpReceiver


class ReceiverWindowThrottle:
    """Divides a receive-budget across currently-active connections.

    Args:
        sim: The simulator to schedule updates on.
        receivers: All connections terminating at the throttled host.
        budget_bytes: Aggregate in-flight budget to divide.
        period_ns: Update period (ICTCP uses a couple of RTTs).
        mss_bytes: Per-connection window floor.
    """

    def __init__(self, sim: Simulator, receivers: list[TcpReceiver],
                 budget_bytes: int, period_ns: int = units.usec(100.0),
                 mss_bytes: int = 1460):
        if budget_bytes <= 0:
            raise ValueError("budget must be positive")
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self._sim = sim
        self._receivers = receivers
        self.budget_bytes = budget_bytes
        self.period_ns = period_ns
        self.mss_bytes = mss_bytes
        self._last_delivered = [r.delivered_bytes for r in receivers]
        self._running = False
        self.updates = 0
        self.last_active_count = 0

    def start(self) -> None:
        """Begin periodic window updates; all connections start at an even
        share of the budget."""
        if self._running:
            return
        self._running = True
        self._apply(self._receivers)
        self._sim.schedule(self.period_ns, self._tick)

    def add_connection(self, receiver: TcpReceiver) -> None:
        """Register a connection that opened after construction.

        Before :meth:`start`, the newcomer joins the receivers ``start``
        divides the budget across. On a running throttle it gets an even
        share over every registered receiver, itself included, until the
        next tick re-divides the budget: it is about to transfer, so
        parking it at one MSS would only delay it, while the current
        active share could hand the whole budget to each of many
        newcomers. The count is of every connection ever registered,
        finished ones included, so once more than ``budget / MSS`` have
        registered a newcomer opens at the one-MSS floor even when few
        are active.
        """
        self._receivers.append(receiver)
        self._last_delivered.append(receiver.delivered_bytes)
        if self._running:
            receiver.advertised_window_bytes = max(
                self.mss_bytes, self.budget_bytes // len(self._receivers))

    def stop(self) -> None:
        """Stop updating and lift the advertised-window limits."""
        self._running = False
        for receiver in self._receivers:
            receiver.advertised_window_bytes = None

    def _tick(self) -> None:
        if not self._running:
            return
        active = []
        for index, receiver in enumerate(self._receivers):
            delivered = receiver.delivered_bytes
            if delivered > self._last_delivered[index]:
                active.append(receiver)
            self._last_delivered[index] = delivered
        self._apply(active if active else self._receivers)
        self._sim.schedule(self.period_ns, self._tick)

    def _apply(self, active: list[TcpReceiver]) -> None:
        self.updates += 1
        self.last_active_count = len(active)
        share = max(self.mss_bytes, self.budget_bytes // max(len(active), 1))
        active_set = set(id(r) for r in active)
        for receiver in self._receivers:
            if id(receiver) in active_set:
                receiver.advertised_window_bytes = share
            else:
                # Parked connections may trickle at one segment.
                receiver.advertised_window_bytes = self.mss_bytes

    def current_share_bytes(self) -> Optional[int]:
        """The per-connection window most recently applied to active
        connections (None before :meth:`start`)."""
        if self.updates == 0:
            return None
        return max(self.mss_bytes,
                   self.budget_bytes // max(self.last_active_count, 1))
