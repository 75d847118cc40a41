"""Tests for the event queue: ordering, tie-breaking, cancellation."""

import pytest
from hypothesis import given, strategies as st

from repro.simcore.event import Event, EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(30, lambda: None)
        q.push(10, lambda: None)
        q.push(20, lambda: None)
        times = [q.pop().time_ns for _ in range(3)]
        assert times == [10, 20, 30]

    def test_ties_break_fifo(self):
        q = EventQueue()
        order = []
        for tag in range(5):
            q.push(100, order.append, (tag,))
        while (event := q.pop()) is not None:
            event.fn(*event.args)
        assert order == [0, 1, 2, 3, 4]

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1, lambda: None)

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=200))
    def test_pop_sequence_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while (event := q.pop()) is not None:
            popped.append(event.time_ns)
        assert popped == sorted(times)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2,
                    max_size=100))
    def test_fifo_among_equal_times(self, times):
        q = EventQueue()
        events = [q.push(t, lambda: None) for t in times]
        seq_by_time: dict[int, list[int]] = {}
        while (event := q.pop()) is not None:
            seq_by_time.setdefault(event.time_ns, []).append(event.seq)
        for seqs in seq_by_time.values():
            assert seqs == sorted(seqs)
        assert events  # silence unused warning


class TestCancellation:
    def test_cancelled_event_not_popped(self):
        q = EventQueue()
        keep = q.push(10, lambda: None)
        drop = q.push(5, lambda: None)
        q.cancel(drop)
        assert q.pop() is keep
        assert q.pop() is None

    def test_len_counts_live_only(self):
        q = EventQueue()
        event = q.push(1, lambda: None)
        q.push(2, lambda: None)
        assert len(q) == 2
        q.cancel(event)
        assert len(q) == 1

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        event = q.push(1, lambda: None)
        q.cancel(event)
        q.cancel(event)
        assert len(q) == 0

    def test_cancel_clears_callback(self):
        q = EventQueue()
        event = q.push(1, lambda: None)
        q.cancel(event)
        assert event.cancelled
        assert event.fn is None

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(1, lambda: None)
        assert q


class TestEventRepr:
    def test_repr_live(self):
        event = Event(5, 0, len, ())
        assert "t=5ns" in repr(event)

    def test_repr_cancelled(self):
        event = Event(5, 0, len, ())
        event.cancel()
        assert "cancelled" in repr(event)
