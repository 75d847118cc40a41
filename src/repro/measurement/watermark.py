"""Switch queue occupancy for in-sim consumers (Section 3.4).

To keep measurement overheads low, the paper's ToR switches expose queue
occupancy as a *high watermark*: the maximum occupancy reached over the
last window (one minute in production). A simulated
:class:`~repro.netsim.queues.DropTailQueue` books that record itself, per
interval (:meth:`~repro.netsim.queues.DropTailQueue.start_interval_peaks`).

:class:`WatermarkChannelProbe` is the online view: it publishes
instantaneous occupancy samples onto the ``queue.watermark`` hook channel
(:data:`WATERMARK_CHANNEL`), so in-sim consumers — the burst detector of
the ``detect`` mitigation scheme, or any recorder — can subscribe without
touching the queue itself. It reads ``len_packets`` directly rather than
the watermark register, so it never perturbs the per-burst peak
accounting the incast workload relies on.
"""

from __future__ import annotations

from repro import units
from repro.netsim.queues import DropTailQueue
from repro.simcore.kernel import Simulator

WATERMARK_CHANNEL = "queue.watermark"
"""Hook channel carrying ``(queue_name, depth_packets, t_ns)`` samples."""


class WatermarkChannelProbe:
    """Periodic occupancy publisher for the ``queue.watermark`` channel.

    Every ``period_ns`` the probe emits
    ``sim.hooks.emit(WATERMARK_CHANNEL, queue_name, depth, now)`` with the
    queue's instantaneous occupancy. Emission is observer-gated by the
    hook registry, so an unsubscribed channel costs one dict lookup per
    sample and nothing perturbs packet timing.
    """

    def __init__(self, sim: Simulator, queue: DropTailQueue,
                 period_ns: int = units.usec(50.0)):
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self._sim = sim
        self._queue = queue
        self.period_ns = period_ns
        self.samples = 0
        self._running = False

    def start(self) -> None:
        """Begin publishing samples, starting now."""
        if self._running:
            return
        self._running = True
        self._tick()

    def stop(self) -> None:
        """Stop publishing at the next tick."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.samples += 1
        self._sim.hooks.emit(WATERMARK_CHANNEL, self._queue.name,
                             self._queue.len_packets, self._sim.now)
        self._sim.schedule_fire(self.period_ns, self._tick)
