"""Time-series recording for simulations.

- :class:`TimeSeries` — append-only ``(time_ns, value)`` samples with
  numpy export.
- :class:`PeriodicProbe` — samples a callable at a fixed period on the
  simulator clock (e.g. queue length every 50 µs for Figure 5).

Per-interval records are booked by their producers, not binned from
samples here: a host NIC its 1 ms counters, a queue its peaks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.simcore.kernel import Simulator


class TimeSeries:
    """Append-only series of ``(time_ns, value)`` samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: list[int] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time_ns: int, value: float) -> None:
        """Append one sample. Times must be non-decreasing.

        This is called once per probe tick, so it works on local
        references and does only the ordering comparison.
        """
        times = self._times
        if times and time_ns < times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time_ns} < {times[-1]}")
        times.append(time_ns)
        self._values.append(value)

    @property
    def times_ns(self) -> np.ndarray:
        """Sample times as an int64 array."""
        return np.asarray(self._times, dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        """Sample values as a float64 array."""
        return np.asarray(self._values, dtype=np.float64)


class PeriodicProbe:
    """Samples ``fn()`` into a :class:`TimeSeries` every ``period_ns``.

    The probe schedules itself on the simulator; call :meth:`start` once and
    :meth:`stop` to cease sampling. Sampling happens *after* all events at
    the same timestamp that were scheduled before the probe tick.
    """

    def __init__(self, sim: Simulator, fn: Callable[[], float],
                 period_ns: int, name: str = ""):
        if period_ns <= 0:
            raise ValueError("probe period must be positive")
        self._sim = sim
        self._fn = fn
        self._period_ns = period_ns
        self.series = TimeSeries(name)
        self._generation = 0
        self._running = False

    def start(self, delay_ns: int = 0) -> None:
        """Begin sampling ``delay_ns`` from now."""
        if self._running:
            return
        self._running = True
        # Fire-and-forget ticks ride the kernel's pooled no-handle path
        # (sampling is the highest-frequency periodic activity in large
        # runs). Stopping works by flag: a tick already in the heap fires
        # once more, sees the stale generation or the cleared flag, and
        # records nothing. The generation token keeps a stop()/start()
        # cycle from double-ticking via such a stale event.
        self._generation += 1
        self._sim.schedule_fire(delay_ns, self._tick, (self._generation,))

    def stop(self) -> None:
        """Stop sampling. Idempotent."""
        self._running = False

    def _tick(self, generation: int) -> None:
        if not self._running or generation != self._generation:
            return
        self.series.record(self._sim.now, float(self._fn()))
        self._sim.schedule_fire(self._period_ns, self._tick, (generation,))
