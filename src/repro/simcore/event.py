"""Event and event-queue primitives for the discrete-event kernel.

Events are ordered by ``(time_ns, seq)``. The sequence number is assigned at
insertion time, so two events scheduled for the same nanosecond fire in the
order they were scheduled. This FIFO tie-breaking makes simulation runs
deterministic for a given seed, which the test suite and the paper-style
"average of the final 10 bursts" methodology both rely on.

Cancellation is lazy: cancelled events stay in the heap but are skipped when
popped. This keeps cancellation O(1), which matters because TCP retransmission
timers are cancelled on almost every ACK. To stop dead entries from bloating
the heap (a TCP-heavy run otherwise carries ~90% cancelled timer entries,
doubling every sift's comparison count), the queue compacts itself in place
whenever cancelled entries outnumber live ones. Compaction cannot change pop
order: ``(time_ns, seq)`` is a strict total order, so the heap's internal
layout never affects which live entry pops next.

Performance notes (this module is the hottest code in the repository):

- A heap entry is a plain 4-element list ``[time_ns, seq, fn, args]``.
  :class:`Event` — the cancellable handle :meth:`EventQueue.push` returns —
  *is* its heap entry (a ``list`` subclass), so ``heapq`` orders entries with
  CPython's C-level list comparison instead of a Python ``__lt__`` call.
  ``seq`` is unique per queue, so comparison always resolves on the first two
  integer elements and never reaches ``fn``/``args``. A handle carries a
  fifth element, the queue whose heap holds it (``None`` once
  :meth:`EventQueue.pop` has handed it out), so a cancel through the handle
  or the queue counts a dead entry exactly when one stays in the heap.
- Fire-and-forget scheduling (:meth:`EventQueue.push_fire`) skips the
  :class:`Event` wrapper: the entry is a fresh bare list that nothing
  outside the heap ever references.
- The queue counts only its *dead* entries (cancelled, still in the heap),
  so a push or a live pop touches no counter; ``len`` is the heap's length
  minus that count.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: Heap-entry field indices (an entry is ``[time_ns, seq, fn, args]``;
#: an :class:`Event` adds its queue).
TIME = 0
SEQ = 1
FN = 2
ARGS = 3
QUEUE = 4

#: Compaction triggers when dead entries exceed this floor *and* outnumber
#: live entries. The floor keeps tiny queues from compacting constantly.
COMPACT_MIN_DEAD = 64


class Event(list):
    """A single scheduled callback; also its own ``(time, seq, fn, args,
    queue)`` heap entry.

    Being a ``list`` subclass (with the fields exposed as read-only
    properties) lets ``heapq`` compare entries at C speed — see the module
    docstring. Instances are created by :meth:`EventQueue.push`; treat the
    list contents as kernel-internal and use the properties and
    :meth:`cancel` instead.
    """

    __slots__ = ()

    def __init__(self, time_ns: int, seq: int,
                 fn: Optional[Callable[..., Any]], args: tuple,
                 queue: Optional[EventQueue] = None):
        super().__init__((time_ns, seq, fn, args, queue))

    @property
    def time_ns(self) -> int:
        """Virtual time at which the event fires."""
        return self[TIME]

    @property
    def seq(self) -> int:
        """Insertion sequence number, used for deterministic tie-breaking."""
        return self[SEQ]

    @property
    def fn(self) -> Optional[Callable[..., Any]]:
        """The callback. ``None`` after cancellation (or after firing)."""
        return self[FN]

    @property
    def args(self) -> tuple:
        """Positional arguments passed to the callback."""
        return self[ARGS]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self[FN] is None

    def cancel(self) -> None:
        """Prevent this event from firing. Idempotent; the same as
        :meth:`EventQueue.cancel` on the queue that holds it."""
        queue = self[QUEUE]
        if queue is not None:
            queue.cancel(self)
        else:
            self[FN] = None
            self[ARGS] = ()

    def __repr__(self) -> str:
        name = getattr(self[FN], "__qualname__", repr(self[FN]))
        state = "cancelled" if self[FN] is None else name
        return f"Event(t={self[TIME]}ns seq={self[SEQ]} {state})"


class EventQueue:
    """Binary-heap priority queue of scheduled callbacks.

    Two insertion paths:

    - :meth:`push` returns an :class:`Event` handle that supports
      :meth:`cancel` — used for timers and anything else that may be
      disarmed.
    - :meth:`push_fire` returns nothing — used by hot paths (link
      serialization/propagation events) that never cancel.

    Invariants: pops are globally ordered by ``(time_ns, seq)``; ``seq``
    increases monotonically with insertion, giving FIFO order among equal
    timestamps regardless of the insertion path; ``_dead`` is the number of
    cancelled entries still in the heap.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._next_seq = 0
        self._dead = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) > self._dead

    def push(self, time_ns: int, fn: Callable[..., Any],
             args: tuple = ()) -> Event:
        """Insert a callback to fire at ``time_ns``; returns its handle."""
        if time_ns < 0:
            raise ValueError(f"event time must be non-negative, got {time_ns}")
        event = Event(time_ns, self._next_seq, fn, args, self)
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        return event

    def push_fire(self, time_ns: int, fn: Callable[..., Any],
                  args: tuple = ()) -> None:
        """Insert a fire-and-forget callback (no handle, not cancellable).

        Ordering is identical to :meth:`push`: the entry takes the next
        sequence number exactly as a handled event would.
        """
        if time_ns < 0:
            raise ValueError(f"event time must be non-negative, got {time_ns}")
        heapq.heappush(self._heap, [time_ns, self._next_seq, fn, args])
        self._next_seq += 1

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` if it has not fired or been cancelled already.
        It counts as a dead entry only while it is still in this heap."""
        if event[FN] is not None:
            event[FN] = None
            event[ARGS] = ()
            if event[QUEUE] is not self:
                return
            dead = self._dead + 1
            if dead > COMPACT_MIN_DEAD and 2 * dead > len(self._heap):
                self._compact()
            else:
                self._dead = dead

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (slice assignment) so that the kernel's run loop, which
        holds a direct reference to the heap list, never goes stale.
        Deterministic: the strict ``(time_ns, seq)`` order means heap
        layout cannot influence pop order.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[FN] is not None]
        heapq.heapify(heap)
        self._dead = 0

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty.

        Cancelled events encountered along the way are discarded. The
        returned object is the raw heap entry: an :class:`Event` for
        handled pushes, a plain list for :meth:`push_fire` entries. It
        belongs to the caller from then on: a returned :class:`Event` no
        longer names this queue, so cancelling it afterwards (through the
        handle or the queue) counts nothing.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[FN] is not None:
                if type(entry) is Event:
                    entry[QUEUE] = None
                return entry
            self._dead -= 1
        return None
