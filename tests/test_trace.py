"""Tests for time-series recording primitives."""

import pytest

from repro.simcore.trace import PeriodicProbe, TimeSeries


class TestTimeSeries:
    def test_record_and_export(self):
        ts = TimeSeries("x")
        ts.record(0, 1.0)
        ts.record(10, 2.0)
        assert list(ts.times_ns) == [0, 10]
        assert list(ts.values) == [1.0, 2.0]
        assert len(ts) == 2

    def test_rejects_time_regression(self):
        ts = TimeSeries()
        ts.record(10, 1.0)
        with pytest.raises(ValueError):
            ts.record(5, 2.0)

    def test_equal_times_allowed(self):
        ts = TimeSeries()
        ts.record(10, 1.0)
        ts.record(10, 2.0)
        assert len(ts) == 2


class TestPeriodicProbe:
    def test_samples_on_period(self, sim):
        state = {"v": 0.0}
        probe = PeriodicProbe(sim, lambda: state["v"], period_ns=10)
        probe.start()
        sim.schedule(15, lambda: state.update(v=5.0))
        sim.run(until_ns=35)
        probe.stop()
        assert list(probe.series.times_ns) == [0, 10, 20, 30]
        assert list(probe.series.values) == [0.0, 0.0, 5.0, 5.0]

    def test_stop_prevents_further_samples(self, sim):
        probe = PeriodicProbe(sim, lambda: 1.0, period_ns=10)
        probe.start()
        sim.run(until_ns=25)
        probe.stop()
        sim.run(until_ns=100)
        assert len(probe.series) == 3  # t=0, 10, 20

    def test_delayed_start(self, sim):
        probe = PeriodicProbe(sim, lambda: 1.0, period_ns=10)
        probe.start(delay_ns=5)
        sim.run(until_ns=26)
        assert list(probe.series.times_ns) == [5, 15, 25]

    def test_double_start_is_noop(self, sim):
        probe = PeriodicProbe(sim, lambda: 1.0, period_ns=10)
        probe.start()
        probe.start()
        sim.run(until_ns=10)
        assert len(probe.series) == 2

    def test_rejects_bad_period(self, sim):
        with pytest.raises(ValueError):
            PeriodicProbe(sim, lambda: 1.0, period_ns=0)
