"""Tests for the simulator kernel and Timer."""

import pytest

from repro.simcore.kernel import (SimulationError, Simulator, StopReason,
                                  Timer)


class TestScheduling:
    def test_run_executes_in_order(self, sim):
        fired = []
        sim.schedule(100, fired.append, (1,))
        sim.schedule(50, fired.append, (2,))
        sim.run()
        assert fired == [2, 1]
        assert sim.now == 100

    def test_schedule_at_absolute(self, sim):
        sim.schedule_at(500, lambda: None)
        sim.run()
        assert sim.now == 500

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_rejects_past_absolute(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_nested_scheduling(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(10, fired.append, ("inner",))

        sim.schedule(5, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 15

    def test_cancel_none_is_noop(self, sim):
        sim.cancel(None)

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, (1,))
        sim.cancel(event)
        sim.run()
        assert fired == []


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(10, fired.append, (1,))
        sim.schedule(100, fired.append, (2,))
        sim.run(until_ns=50)
        assert fired == [1]
        assert sim.now == 50
        sim.run()
        assert fired == [1, 2]

    def test_run_until_advances_time_with_no_events(self, sim):
        sim.run(until_ns=1234)
        assert sim.now == 1234

    def test_max_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(i + 1, fired.append, (i,))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_events_processed_counter(self, sim):
        for i in range(3):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_pending_events(self, sim):
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.pending_events == 2

    def test_reentrant_run_rejected(self, sim):
        def bad():
            sim.run()

        sim.schedule(1, bad)
        with pytest.raises(SimulationError):
            sim.run()


class TestStopReason:
    def test_drained(self, sim):
        sim.schedule(10, lambda: None)
        assert sim.run() is StopReason.DRAINED
        assert sim.now == 10

    def test_until(self, sim):
        sim.schedule(100, lambda: None)
        assert sim.run(until_ns=50) is StopReason.UNTIL
        assert sim.now == 50

    def test_until_with_empty_queue_is_drained(self, sim):
        # until_ns was reached because there was nothing left, not because
        # a later event was deferred: the horizon still advances the clock.
        assert sim.run(until_ns=1234) is StopReason.DRAINED
        assert sim.now == 1234

    def test_max_events_budget(self, sim):
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        assert sim.run(max_events=2) is StopReason.MAX_EVENTS
        assert sim.now == 2
        assert sim.pending_events == 3

    def test_max_events_does_not_jump_to_until(self, sim):
        # The docstring contract: a budget stop must NOT advance the clock
        # to until_ns — the remaining events would then be in the past.
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        assert sim.run(until_ns=1000, max_events=2) is StopReason.MAX_EVENTS
        assert sim.now == 2
        assert sim.run(until_ns=1000) is StopReason.DRAINED
        assert sim.now == 1000

    def test_exact_budget_with_drained_queue(self, sim):
        # Queue empties exactly as the budget is reached: the drain wins.
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.run(max_events=2) is StopReason.DRAINED


class TestTimer:
    def test_fires_once(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.run()
        assert fired == [100]
        assert not timer.armed

    def test_rearm_replaces_expiry(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        timer.start(200)
        sim.run()
        assert fired == [200]

    def test_stop_prevents_fire(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        timer.stop()
        sim.run()
        assert fired == []

    def test_stop_idempotent(self, sim):
        timer = Timer(sim, lambda: None)
        timer.stop()
        timer.stop()

    def test_expiry_query(self, sim):
        timer = Timer(sim, lambda: None)
        assert timer.expiry_ns is None
        timer.start(75)
        assert timer.expiry_ns == 75
        assert timer.armed

    def test_restart_after_fire(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10)
        sim.run()
        timer.start(10)
        sim.run()
        assert fired == [10, 20]
