"""Invariants the kernel fast path must preserve.

The profile-guided hot path (list-backed heap entries, handle-less
``push_fire``/``schedule_fire`` entries, a dead-entry count, in-place heap
compaction, and the inlined run loop) is only admissible because it is behaviour-preserving.
These tests pin the load-bearing guarantees:

- FIFO among equal timestamps holds for arbitrary interleavings of
  ``schedule`` and ``schedule_fire``, over several runs of one simulator;
- no heap entry is ever reused, and handles returned by ``push`` stay
  inert (cancel is a no-op) after firing;
- in-place compaction never reorders or drops live events;
- enabling the telemetry observer layer changes *observations only* —
  simulation results are byte-identical with it on or off.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import units
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.simcore.event import COMPACT_MIN_DEAD, Event, EventQueue
from repro.simcore.kernel import Simulator, Timer


class TestFifoSurvivesPooling:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_mixed_schedule_paths_fire_in_fifo_order(self, seed: int):
        """Equal-timestamp events fire in scheduling order regardless of
        which insertion path (handled vs fire-and-forget) each one used,
        over several batches run through one simulator.
        """
        rng = random.Random(seed)
        sim = Simulator()
        fired: list[int] = []
        expected: list[tuple[int, int]] = []
        label = 0
        for _ in range(3):
            base = sim.now
            for _ in range(rng.randint(1, 80)):
                delay = rng.randint(0, 10)
                label += 1
                expected.append((base + delay, label))
                if rng.random() < 0.5:
                    sim.schedule(delay, fired.append, (label,))
                else:
                    sim.schedule_fire(delay, fired.append, (label,))
            sim.run()
        # Stable sort by time == time order with FIFO tie-breaking.
        assert fired == [lbl for _, lbl in
                         sorted(expected, key=lambda pair: pair[0])]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_fifo_survives_cancellation_and_compaction(self, seed: int):
        """Random cancellations (which can trigger in-place compaction
        mid-run) never reorder or drop the surviving events."""
        rng = random.Random(seed)
        sim = Simulator()
        fired: list[int] = []
        survivors: list[tuple[int, int]] = []
        handles: list[tuple[Event, int, int]] = []
        for label in range(300):
            delay = rng.randint(0, 10)
            if rng.random() < 0.4:
                sim.schedule_fire(delay, fired.append, (label,))
                survivors.append((delay, label))
            else:
                handles.append((sim.schedule(delay, fired.append, (label,)),
                                delay, label))
        rng.shuffle(handles)
        cut = len(handles) * 3 // 4
        for event, _, _ in handles[:cut]:
            sim.cancel(event)
        survivors.extend((delay, label)
                         for _, delay, label in handles[cut:])
        sim.run()
        # Labels were assigned in scheduling order, so (time, label) is the
        # expected (time, seq) firing order.
        assert fired == [lbl for _, lbl in sorted(survivors)]

    def test_push_handles_never_enter_free_list(self):
        """A consumed entry is never reused: no entry object re-enters the
        heap once it has left it, and every fired handle stays inert
        (cancelling it changes nothing). A pool of recycled entries once
        endangered both: a reused handle would alias an unrelated future
        event for anyone still holding the reference."""
        sim = Simulator()
        heap = sim._queue._heap
        seen: dict[int, list] = {}  # held, so that ids stay unique
        left: set[int] = set()
        handles: list[Event] = []

        def probe(step: int) -> None:
            inside = {id(entry): entry for entry in heap}
            assert left.isdisjoint(inside)
            left.update(key for key in seen if key not in inside)
            seen.update(inside)
            if step < 30:
                delay = step % 4
                if step % 2:
                    handles.append(sim.schedule(delay, probe, (step + 1,)))
                else:
                    sim.schedule_fire(delay, probe, (step + 1,))

        for chain in range(20):
            handles.append(sim.schedule(chain % 3, probe, (chain,)))
        for until_ns in (5, 20, 60):
            sim.run(until_ns=until_ns)
        sim.run()
        assert len(left) > 300  # entries did come and go
        fired = [event for event in handles if event.cancelled]
        assert len(fired) == len(handles)
        for event in fired:
            pending = sim.pending_events
            sim.cancel(event)
            assert sim.pending_events == pending
        assert sim.pending_events == 0 and not sim._queue._heap

    def test_fired_handle_is_inert(self):
        """Cancelling a handle after it fired must be a no-op and must not
        corrupt the live-event count."""
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        later = sim.schedule(20, lambda: None)
        sim.run(until_ns=15)
        assert event.cancelled  # consumed by firing
        sim.cancel(event)  # no-op; must not count a dead entry
        assert sim.pending_events == 1
        sim.cancel(later)
        assert sim.pending_events == 0


class TestCompaction:
    def test_compaction_bounds_heap_and_preserves_order(self):
        """Mass cancellation compacts the heap in place; the drain still
        yields exactly the live events in (time, seq) order."""
        q = EventQueue()
        keep = []
        doomed = []
        for i in range(10 * COMPACT_MIN_DEAD):
            event = q.push(i % 7, lambda: None)
            (doomed if i % 5 else keep).append(event)
        for event in doomed:
            q.cancel(event)
        # Dead entries outnumber live by far, so compaction must have run.
        assert len(q._heap) < len(keep) + COMPACT_MIN_DEAD + 1
        drained = []
        while (event := q.pop()) is not None:
            drained.append(event)
        assert {id(e) for e in drained} == {id(e) for e in keep}
        keys = [(e.time_ns, e.seq) for e in drained]
        assert keys == sorted(keys)

    def test_timer_rearm_keeps_heap_compact(self):
        """The TCP RTO pattern — rearm a long timer on every event — must
        not accumulate unbounded dead heap entries."""
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        remaining = 2_000

        def tick() -> None:
            nonlocal remaining
            timer.start(units.msec(1.0))
            remaining -= 1
            if remaining > 0:
                sim.schedule(100, tick)

        sim.schedule(0, tick)
        sim.run(until_ns=units.msec(0.5))
        heap_len = len(sim._queue._heap)
        live = sim.pending_events
        assert heap_len - live <= max(2 * live, COMPACT_MIN_DEAD + 1)


class TestHookEmissionEquivalence:
    def test_telemetry_on_off_identical_results(self):
        """The telemetry layer is an observer: turning it on adds sampling
        events interleaved with the workload but must not perturb any
        simulation outcome."""
        base = dict(n_flows=6, burst_duration_ns=units.msec(0.5),
                    n_bursts=3, seed=1, max_sim_time_ns=units.sec(5.0))
        off = run_incast_sim(IncastSimConfig(**base))
        on = run_incast_sim(IncastSimConfig(**base, telemetry=True))
        assert off.telemetry is None
        assert on.telemetry is not None
        assert len(on.telemetry.hosts) > 0

        assert on.mean_bct_ms == off.mean_bct_ms
        assert on.steady_drops == off.steady_drops
        assert on.steady_rtos == off.steady_rtos
        assert on.steady_marked_packets == off.steady_marked_packets
        assert on.steady_retransmits == off.steady_retransmits
        assert on.mode == off.mode
        assert on.burst_starts_ns == off.burst_starts_ns
        np.testing.assert_array_equal(on.queue_times_ns, off.queue_times_ns)
        np.testing.assert_array_equal(on.queue_packets, off.queue_packets)
        np.testing.assert_array_equal(on.aligned_queue_packets,
                                      off.aligned_queue_packets)
        assert ([b.bct_ms for b in on.burst_results]
                == [b.bct_ms for b in off.burst_results])
