"""The discrete-event simulator kernel.

:class:`Simulator` owns virtual time and the event queue. Components schedule
callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the kernel fires them in
time order. :class:`Timer` wraps the rearm/cancel pattern that protocol
timeouts (TCP RTO, delayed-ACK) need.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Callable, Optional

from repro.simcore.event import ARGS, FN, TIME, Event, EventQueue
from repro.simcore.hooks import HookRegistry

_total_events_processed = 0

_NEVER = 1 << 63
"""Stands in for an absent ``until_ns`` / ``max_events`` in the run loop
(an int: comparing ints to a float is slower)."""


def total_events_processed() -> int:
    """Events fired by *every* :class:`Simulator` in this process so far.

    The experiment engine samples this around each work unit to report how
    much simulation work the unit performed, including across the several
    simulators some experiments create internally.
    """
    return _total_events_processed


def reset_total_events_processed() -> None:
    """Reset the process-wide event tally (test isolation helper)."""
    global _total_events_processed
    _total_events_processed = 0


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class StopReason(enum.Enum):
    """Why :meth:`Simulator.run` returned."""

    DRAINED = "drained"        # the event queue emptied
    UNTIL = "until"            # until_ns reached; later events remain queued
    MAX_EVENTS = "max_events"  # the event budget ran out mid-stream


class Simulator:
    """Event loop with integer-nanosecond virtual time.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(100, fired.append, (1,))
        >>> _ = sim.schedule(50, fired.append, (2,))
        >>> sim.run().name
        'DRAINED'
        >>> fired
        [2, 1]
        >>> sim.now
        100

    Attributes:
        hooks: Named-channel observer registry. Instrumented components
            (TCP endpoints, the telemetry layer) emit lifecycle events
            here; emission with no subscribers costs one dict lookup.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0
        self._events_processed = 0
        self._running = False
        self.hooks = HookRegistry()

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live events still in the queue."""
        return len(self._queue)

    # --- scheduling ----------------------------------------------------

    def schedule(self, delay_ns: int, fn: Callable[..., Any],
                 args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` to fire ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay {delay_ns} ns)")
        return self._queue.push(self._now + delay_ns, fn, args)

    def schedule_at(self, time_ns: int, fn: Callable[..., Any],
                    args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` to fire at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule into the past "
                f"(t={time_ns} ns < now={self._now} ns)")
        return self._queue.push(time_ns, fn, args)

    def schedule_fire(self, delay_ns: int, fn: Callable[..., Any],
                      args: tuple = ()) -> None:
        """Schedule ``fn(*args)`` to fire ``delay_ns`` from now, with no
        cancellation handle.

        The fast path for fire-and-forget events (link serialization
        completions, packet deliveries): the heap entry is a bare list,
        with no :class:`Event` handle to build. Ordering semantics are
        identical to :meth:`schedule`. Use :meth:`schedule` whenever the
        caller might need to cancel.
        """
        if delay_ns < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay {delay_ns} ns)")
        self._queue.push_fire(self._now + delay_ns, fn, args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event. ``None`` is ignored."""
        if event is not None:
            self._queue.cancel(event)

    def count_batched(self, n: int) -> None:
        """Credit ``n`` logical events retired by a closed-form fast path.

        Crediting keeps ``events_processed`` meaning "per-packet
        simulation operations performed" whichever path ran. No fast path
        in the package calls it any more (composed switch ports add their
        credits to ``_events_processed`` directly, and :meth:`run` passes
        them on to the process-wide total); ``bench/trace.py``'s
        ``EventCounters`` still wraps it, and ROADMAP item 1 retires both.
        """
        global _total_events_processed
        self._events_processed += n
        if not self._running:  # a run passes its credits on when it ends
            _total_events_processed += n

    # --- execution -----------------------------------------------------

    def run(self, until_ns: Optional[int] = None,
            max_events: Optional[int] = None) -> StopReason:
        """Run until the queue drains, ``until_ns`` is reached, or
        ``max_events`` more events have fired; returns why it stopped.

        When stopping because the queue drained or ``until_ns`` was
        reached, virtual time is advanced to exactly ``until_ns`` (when
        given) and any event scheduled for a later time remains queued.
        When stopping on :data:`StopReason.MAX_EVENTS`, runnable events at
        or before ``until_ns`` remain queued, so virtual time stays at the
        last fired event — advancing it would move those events into the
        past.

        The loop body inlines the queue's pop (this is the hottest loop in
        the repository), including FIFO tie-breaking and the dead-entry
        count. Callbacks may schedule, cancel, and thereby trigger
        in-place heap compaction freely: the loop re-reads the
        (identity-stable) heap each iteration. Fired events are counted
        once, when the run returns, together with whatever the run's
        callbacks credited to ``_events_processed``; until then
        :attr:`events_processed` lags the events fired in this run.
        """
        if self._running:
            raise SimulationError("run() re-entered from within an event")
        self._running = True
        global _total_events_processed
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        # An absent limit is an unreachable one: the loop tests no None.
        last_ns = until_ns if until_ns is not None else _NEVER
        budget = max_events if max_events is not None else _NEVER
        counted = self._events_processed
        fired = 0
        try:
            while heap:
                # Pop first, discarding dead entries; an entry that must
                # stay queued goes back (the (time, seq) order is strict,
                # so the heap's layout cannot change what pops next).
                entry = heappop(heap)
                fn = entry[FN]
                if fn is None:
                    queue._dead -= 1
                    continue
                time_ns = entry[TIME]
                if time_ns > last_ns:
                    heapq.heappush(heap, entry)
                    reason = StopReason.UNTIL
                    break
                if fired >= budget:
                    heapq.heappush(heap, entry)
                    reason = StopReason.MAX_EVENTS
                    break
                self._now = time_ns
                entry[FN] = None  # mark consumed (handles stay inert)
                fired += 1
                fn(*entry[ARGS])
            else:
                reason = StopReason.DRAINED
            if (reason is not StopReason.MAX_EVENTS
                    and until_ns is not None and until_ns > self._now):
                self._now = until_ns
            return reason
        finally:
            self._events_processed += fired
            _total_events_processed += self._events_processed - counted
            self._running = False


class Timer:
    """A rearmable one-shot timer bound to a :class:`Simulator`.

    Used for TCP retransmission timeouts: ``start`` arms (or rearms) the
    timer, ``stop`` disarms it, and the callback fires once when it expires.

    Rearming is *lazy*: pushing the deadline later (the overwhelmingly
    common case — every new ACK restarts the RTO clock) only records the
    new deadline instead of cancelling and re-pushing a heap entry. The
    already-scheduled event fires, notices it is stale, and re-schedules
    itself at the recorded deadline — one heap operation per elapsed
    timeout period instead of one per rearm. Pulling the deadline
    *earlier* still cancels eagerly, so the callback can never fire late.
    """

    __slots__ = ("_sim", "_fn", "_event", "_deadline")

    def __init__(self, sim: Simulator, fn: Callable[[], Any]):
        self._sim = sim
        self._fn = fn
        self._event: Optional[Event] = None
        self._deadline: Optional[int] = None

    @property
    def armed(self) -> bool:
        """Whether the timer is currently scheduled to fire."""
        return self._deadline is not None

    @property
    def expiry_ns(self) -> Optional[int]:
        """Absolute expiry time, or ``None`` when disarmed."""
        return self._deadline

    def start(self, delay_ns: int) -> None:
        """Arm the timer to fire ``delay_ns`` from now, replacing any
        previously armed expiry."""
        if delay_ns < 0:
            raise SimulationError(
                f"cannot arm a timer into the past (delay {delay_ns} ns)")
        deadline = self._sim._now + delay_ns
        event = self._event
        if event is not None:
            # Raw heap-entry fields: this runs on every ACK (RTO rearm).
            if event[FN] is not None and event[TIME] <= deadline:
                # Deadline moved later (or stayed): keep the scheduled
                # event; _fire will chase the recorded deadline.
                self._deadline = deadline
                return
            self._sim.cancel(event)
        self._deadline = deadline
        self._event = self._sim.schedule(delay_ns, self._fire)

    def stop(self) -> None:
        """Disarm the timer. Idempotent."""
        self._deadline = None
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        deadline = self._deadline
        if deadline is None:  # stopped and re-fired stale; nothing to do
            return
        if deadline > self._sim._now:
            # Stale: the deadline was lazily pushed later. Chase it.
            self._event = self._sim.schedule_at(deadline, self._fire)
            return
        self._deadline = None
        self._fn()
