"""Property-style tests: EventQueue under interleaved load, event counters.

Complements ``test_event_queue.py`` (single-shot ordering/cancellation)
with randomized interleavings of push/pop/cancel — the access pattern TCP
timers produce — plus the per-simulator and process-wide event counters
the engine's run report relies on.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.simcore.event import COMPACT_MIN_DEAD, FN, Event, EventQueue
from repro.simcore.kernel import (Simulator, reset_total_events_processed,
                                  total_events_processed)


class TestInterleavedQueueOps:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_no_event_lost_under_interleaved_push_pop(self, seed: int):
        """Every pushed event is popped exactly once (none lost, none
        duplicated), in nondecreasing time order, for arbitrary
        interleavings of pushes and pops."""
        rng = random.Random(seed)
        q = EventQueue()
        pushed, popped = [], []
        for _ in range(rng.randint(1, 200)):
            if rng.random() < 0.6 or not q:
                pushed.append(q.push(rng.randint(0, 50), lambda: None))
            else:
                outstanding = {id(e) for e in pushed} - {id(e)
                                                         for e in popped}
                floor = min(e.time_ns for e in pushed
                            if id(e) in outstanding)
                event = q.pop()
                assert event is not None
                # Each pop returns the earliest event still queued.
                assert event.time_ns == floor
                popped.append(event)
        drain = []
        while (event := q.pop()) is not None:
            drain.append(event)
        assert len(q) == 0
        popped.extend(drain)
        assert {id(e) for e in popped} == {id(e) for e in pushed}
        assert len(popped) == len(pushed)
        drain_keys = [(e.time_ns, e.seq) for e in drain]
        assert drain_keys == sorted(drain_keys)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_drain_after_interleaving_is_time_sorted_and_fifo(self, seed):
        """After any interleaving of pushes and cancels, a full drain
        yields nondecreasing times with FIFO order among equal times."""
        rng = random.Random(seed)
        q = EventQueue()
        live = []
        for _ in range(rng.randint(1, 200)):
            roll = rng.random()
            if roll < 0.7 or not live:
                live.append(q.push(rng.randint(0, 20), lambda: None))
            else:
                victim = live.pop(rng.randrange(len(live)))
                q.cancel(victim)
        assert len(q) == len(live)
        drained = []
        while (event := q.pop()) is not None:
            drained.append(event)
        assert q.pop() is None and len(q) == 0
        assert {id(e) for e in drained} == {id(e) for e in live}
        keys = [(e.time_ns, e.seq) for e in drained]
        assert keys == sorted(keys)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=50))
    def test_cancelled_events_never_fire(self, times):
        q = EventQueue()
        fired = []
        events = [q.push(t, fired.append, (i,))
                  for i, t in enumerate(times)]
        for event in events[::2]:
            q.cancel(event)
        while (event := q.pop()) is not None:
            assert event.fn is not None
            event.fn(*event.args)
        survivors = [i for i in range(len(times)) if i % 2 == 1]
        assert fired == sorted(survivors, key=lambda i: (times[i], i))


#: One step of a queue program: (operation, argument).
_OPS = st.lists(st.tuples(st.sampled_from(("push", "fire", "cancel",
                                           "pop", "run")),
                          st.integers(min_value=0, max_value=2**16)),
                min_size=20, max_size=120)


class TestDeadEntryCounter:
    @given(_OPS)
    @settings(max_examples=300)
    def test_queue_matches_a_naive_list(self, program):
        """Random push / push_fire / cancel / pop / run(until_ns) programs
        against a naive list of live ``(time, seq)`` pairs (an event's
        label is its seq): equal pop and fire order, ``len`` and ``bool``
        equal to the list's, a dead-entry count equal to the cancelled
        entries still in the heap, and after every cancel no more dead
        than ``max(COMPACT_MIN_DEAD, live)``. Cancels pick any handle ever
        made — live, cancelled, fired or taken by ``pop`` — in runs of up
        to 128, so compaction triggers, and go through the simulator or
        through the handle's own ``Event.cancel``; cancelling a handle
        ``pop`` returned changes nothing."""
        sim = Simulator()
        queue = sim._queue
        heap = queue._heap
        model: list[tuple[int, int]] = []
        handles: list[tuple[Event, int]] = []
        fired: list[int] = []
        seq = 0
        for op, arg in program:
            if op in ("push", "fire"):
                for k in range(arg % 32 + 1):
                    delay = (arg >> 5) % 200 + k % 3
                    if op == "push":
                        handles.append((sim.schedule(delay, fired.append,
                                                     (seq,)), seq))
                    else:
                        sim.schedule_fire(delay, fired.append, (seq,))
                    model.append((sim.now + delay, seq))
                    seq += 1
            elif op == "cancel" and handles:
                first = arg % len(handles)
                through_handle = arg >> 15
                for handle, label in handles[first:
                                             first + (arg >> 8) % 128 + 1]:
                    if through_handle:
                        handle.cancel()
                    else:
                        sim.cancel(handle)
                    model = [item for item in model if item[1] != label]
                dead = len(heap) - len(model)
                assert dead <= max(COMPACT_MIN_DEAD, len(model))
            elif op == "pop":
                entry = queue.pop()
                if not model:
                    assert entry is None
                    continue
                head = min(model)
                model.remove(head)
                assert entry[2] == fired.append and entry[3] == (head[1],)
            elif op == "run":
                until_ns = sim.now + arg % 60
                due = sorted(item for item in model if item[0] <= until_ns)
                model = [item for item in model if item[0] > until_ns]
                del fired[:]
                sim.run(until_ns=until_ns)
                assert fired == [label for _, label in due]
                assert sim.now == until_ns
            assert len(queue) == len(model)
            assert bool(queue) is bool(model)
            assert queue._dead == sum(entry[FN] is None for entry in heap)
        del fired[:]
        sim.run()
        assert fired == [label for _, label in sorted(model)]
        assert len(queue) == 0 and not queue and queue._dead == 0


class TestEventCounters:
    def test_simulator_counts_fired_events(self):
        sim = Simulator()
        for delay in (5, 10, 15):
            sim.schedule(delay, lambda: None)
        cancelled = sim.schedule(20, lambda: None)
        sim.cancel(cancelled)
        sim.run()
        assert sim.events_processed == 3

    def test_process_total_accumulates_across_simulators(self):
        reset_total_events_processed()
        for _ in range(3):
            sim = Simulator()
            sim.schedule(1, lambda: None)
            sim.schedule(2, lambda: None)
            sim.run()
            assert sim.events_processed == 2
        assert total_events_processed() == 6

    def test_reset_total(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.run()
        assert total_events_processed() >= 1
        reset_total_events_processed()
        assert total_events_processed() == 0
