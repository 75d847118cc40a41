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
  integer elements and never reaches ``fn``/``args``.
- Fire-and-forget scheduling (:meth:`EventQueue.push_fire`) skips the
  :class:`Event` wrapper entirely and recycles popped entries through a
  free list. Pooling is only safe because no handle to such an entry ever
  escapes the queue: nothing can cancel it or observe its reuse.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: Heap-entry field indices (an entry is ``[time_ns, seq, fn, args]``).
TIME = 0
SEQ = 1
FN = 2
ARGS = 3

#: Maximum recycled entries kept by a queue's free list. Bounds worst-case
#: retention; in practice the pool tracks the number of concurrently
#: scheduled fire-and-forget events, which is far smaller.
FREE_LIST_MAX = 1024

#: Compaction triggers when dead entries exceed this floor *and* outnumber
#: live entries. The floor keeps tiny queues from compacting constantly.
COMPACT_MIN_DEAD = 64


class Event(list):
    """A single scheduled callback; also its own ``(time, seq, fn, args)``
    heap entry.

    Being a ``list`` subclass (with the fields exposed as read-only
    properties) lets ``heapq`` compare entries at C speed — see the module
    docstring. Instances are created by :meth:`EventQueue.push`; treat the
    list contents as kernel-internal and use the properties and
    :meth:`cancel` instead.
    """

    __slots__ = ()

    def __init__(self, time_ns: int, seq: int,
                 fn: Optional[Callable[..., Any]], args: tuple):
        super().__init__((time_ns, seq, fn, args))

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
        """Prevent this event from firing. Idempotent."""
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
    - :meth:`push_fire` returns nothing and pools its entries — used by
      hot paths (link serialization/propagation events) that never cancel.

    Invariants: pops are globally ordered by ``(time_ns, seq)``; ``seq``
    increases monotonically with insertion, giving FIFO order among equal
    timestamps regardless of the insertion path or entry reuse.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._next_seq = 0
        self._live = 0
        # Recycled fire-and-forget entries. The kernel's run loop returns
        # consumed handle-less entries here; push_fire reuses them.
        self._free: list = []

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time_ns: int, fn: Callable[..., Any],
             args: tuple = ()) -> Event:
        """Insert a callback to fire at ``time_ns``; returns its handle."""
        if time_ns < 0:
            raise ValueError(f"event time must be non-negative, got {time_ns}")
        event = Event(time_ns, self._next_seq, fn, args)
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def push_fire(self, time_ns: int, fn: Callable[..., Any],
                  args: tuple = ()) -> None:
        """Insert a fire-and-forget callback (no handle, not cancellable).

        Entries flow through the queue's free-list pool, so the hot path
        performs zero allocations once the pool is warm. Ordering is
        identical to :meth:`push`: the entry takes the next sequence
        number exactly as a handled event would.
        """
        if time_ns < 0:
            raise ValueError(f"event time must be non-negative, got {time_ns}")
        free = self._free
        if free:
            entry = free.pop()
            entry[TIME] = time_ns
            entry[SEQ] = self._next_seq
            entry[FN] = fn
            entry[ARGS] = args
        else:
            entry = [time_ns, self._next_seq, fn, args]
        self._next_seq += 1
        heapq.heappush(self._heap, entry)
        self._live += 1

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` if it has not fired or been cancelled already."""
        if event[FN] is not None:
            event[FN] = None
            event[ARGS] = ()
            self._live -= 1
            dead = len(self._heap) - self._live
            if dead > COMPACT_MIN_DEAD and dead > self._live:
                self._compact()

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

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty.

        Cancelled events encountered along the way are discarded. The
        returned object is the raw heap entry: an :class:`Event` for
        handled pushes, a plain list for :meth:`push_fire` entries.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[FN] is not None:
                self._live -= 1
                return entry
        return None

    def peek_time(self) -> Optional[int]:
        """The firing time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][FN] is None:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][TIME]

    def clear(self) -> None:
        """Drop every pending event (the free-list pool is kept)."""
        self._heap.clear()
        self._live = 0
