"""Tests for the fluid incast bottleneck model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.fluid import (FluidColumns, FluidConfig, FluidConstants,
                                burst_start, degenerate_point_flows,
                                run_burst)
from tests.fluid_reference import reference_run

CFG = FluidConfig()
DRAIN = CFG.drain_bytes_per_interval


def fluid_burst(flow_count, demand_bytes, effective_capacity_bytes, *,
                config=CFG, max_intervals=2000, **start):
    """One burst through the kernel: ``burst_start`` with ``start``'s
    keywords, then ``run_burst`` on fresh columns. Returns the columns as
    arrays, the final aggregate window and the final alpha."""
    state = burst_start(config, flow_count, demand_bytes,
                        effective_capacity_bytes, **start)
    columns = FluidColumns([], [], [], [], [])
    _, window, alpha = run_burst(
        FluidConstants.of(config), flow_count, demand_bytes, *state,
        start.get("arrival_rate_factor", float("inf")), columns,
        max_intervals)
    return FluidColumns(*map(np.asarray, columns)), window, alpha


class TestConfig:
    def test_production_defaults(self):
        assert CFG.line_rate_bps == 25e9
        assert CFG.capacity_bytes == 2_000_000
        assert CFG.ecn_threshold_frac == pytest.approx(0.067)

    def test_drain_per_ms(self):
        assert DRAIN == pytest.approx(3_125_000)

    def test_bdp(self):
        assert CFG.bdp_bytes == pytest.approx(93_750)

    def test_degenerate_point_matches_arithmetic(self):
        k_star = degenerate_point_flows(CFG)
        budget = CFG.ecn_threshold_bytes + CFG.bdp_bytes
        assert k_star == int(np.ceil(budget / CFG.mss_bytes))
        assert k_star == 152


class TestValidation:
    def test_rejects_bad_flow_count(self):
        with pytest.raises(ValueError):
            burst_start(CFG, 0, 1000, 1e6)

    def test_rejects_bad_demand(self):
        with pytest.raises(ValueError):
            burst_start(CFG, 10, 0, 1e6)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            burst_start(CFG, 10, 1000, 0)

    def test_rejects_bad_arrival_factor(self):
        with pytest.raises(ValueError):
            burst_start(CFG, 10, 1000, 1e6, arrival_rate_factor=0)


class TestConservation:
    def test_everything_eventually_delivered(self):
        demand = int(2 * DRAIN)
        trace = fluid_burst(100, demand, 2e6,
                            window_start_factor=2.0)[0]
        assert trace.delivered_bytes.sum() == pytest.approx(demand, abs=2)

    def test_delivery_never_exceeds_line_rate(self):
        trace = fluid_burst(300, int(5 * DRAIN), 2e6,
                            window_start_factor=3.0)[0]
        assert (trace.delivered_bytes <= DRAIN + 1).all()

    def test_dropped_bytes_are_retransmitted_and_delivered(self):
        demand = int(3 * DRAIN)
        trace, _, _ = fluid_burst(400, demand, 4e5, window_start_factor=3.0,
                                  arrival_rate_factor=2.0)
        assert trace.dropped_bytes.sum() > 0
        assert trace.retransmit_bytes.sum() > 0
        assert trace.delivered_bytes.sum() == pytest.approx(demand, abs=2)
        # Retransmitted deliveries roughly match what was dropped.
        assert trace.retransmit_bytes.sum() == pytest.approx(
            trace.dropped_bytes.sum(), rel=0.25)

    @given(flows=st.integers(min_value=1, max_value=600),
           duration=st.integers(min_value=1, max_value=10),
           wf=st.floats(min_value=0.2, max_value=4.0),
           sync=st.floats(min_value=0.6, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_for_any_burst(self, flows, duration, wf, sync):
        demand = int(DRAIN * duration * min(sync, 1.0))
        trace = fluid_burst(flows, max(demand, 1000), 1.5e6,
                            window_start_factor=wf,
                            arrival_rate_factor=sync)[0]
        assert trace.delivered_bytes.sum() == pytest.approx(
            max(demand, 1000), abs=2)
        assert (trace.delivered_bytes >= -1e-9).all()
        assert (trace.queue_frac >= 0).all()
        assert (trace.queue_frac <= 1.0 + 1e-9).all()
        assert (trace.retransmit_bytes <= trace.delivered_bytes + 1e-6).all()


class TestMarking:
    def test_no_marking_when_undersynchronized(self):
        """Arrivals below line rate never build a queue, hence no marks."""
        trace = fluid_burst(200, int(2 * DRAIN), 2e6,
                            window_start_factor=1.0,
                            arrival_rate_factor=0.9)[0]
        assert trace.marked_bytes.sum() == 0
        assert trace.queue_frac.max() == 0.0

    def test_marking_when_oversynchronized(self):
        trace = fluid_burst(200, int(2 * DRAIN), 2e6,
                            window_start_factor=1.0,
                            arrival_rate_factor=1.5)[0]
        assert trace.marked_bytes.sum() > 0
        assert trace.queue_frac.max() > CFG.ecn_threshold_frac / 2

    def test_degenerate_flows_mark_persistently(self):
        """Beyond K*, the standing queue exceeds the threshold for the whole
        burst (paper Mode 2)."""
        k = degenerate_point_flows(CFG) * 3
        trace = fluid_burst(k, int(5 * DRAIN), 2e6,
                            window_start_factor=1.0)[0]
        marked_frac = trace.marked_bytes.sum() / trace.delivered_bytes.sum()
        assert marked_frac > 0.8

    def test_window_dump_spikes_queue(self):
        """Carried-over windows create the burst-start spike."""
        low = fluid_burst(300, int(2 * DRAIN), 2e6,
                          window_start_factor=1.0)[0]
        high = fluid_burst(300, int(2 * DRAIN), 2e6,
                           window_start_factor=3.0)[0]
        assert high.queue_frac.max() > low.queue_frac.max()


class TestOverflow:
    def test_contention_induces_drops(self):
        """The same burst that fits a full buffer drops under contention."""
        demand = int(2 * DRAIN)
        full = fluid_burst(500, demand, 2e6,
                           window_start_factor=2.0)[0]
        tight = fluid_burst(500, demand, 3e5,
                            window_start_factor=2.0)[0]
        assert full.dropped_bytes.sum() == 0
        assert tight.dropped_bytes.sum() > 0
        # Occupancy is a share of the *configured* buffer (Figure 4a's
        # units), so a contended queue tops out at its effective share.
        assert tight.queue_frac.max() == 3e5 / CFG.capacity_bytes

    def test_recovery_extends_burst(self):
        demand = int(2 * DRAIN)
        clean = fluid_burst(500, demand, 2e6,
                            window_start_factor=3.0)[0]
        lossy = fluid_burst(500, demand, 3e5,
                            window_start_factor=3.0)[0]
        assert len(lossy.delivered_bytes) >= len(clean.delivered_bytes)


FIELDS = ("delivered_bytes", "marked_bytes", "retransmit_bytes",
          "dropped_bytes", "queue_frac")


def fleet_burst(flow_count, duration, contention, carryover, sync):
    """``burst_start`` arguments as ``generate_host_trace`` derives them
    from its per-burst draws."""
    return dict(flow_count=flow_count,
                demand_bytes=max(int(DRAIN * duration * min(sync, 1.0)),
                                 int(0.6 * DRAIN)),
                effective_capacity_bytes=max(
                    CFG.capacity_bytes * (1.0 - contention),
                    0.25 * CFG.capacity_bytes),
                window_start_factor=carryover, arrival_rate_factor=sync)


def reference(max_intervals=2000, config=CFG, **kwargs):
    """``reference_run`` from the state ``burst_start`` clamps
    ``kwargs`` into."""
    return reference_run(config, kwargs["flow_count"], kwargs["demand_bytes"],
                         *burst_start(config, **kwargs),
                         kwargs.get("arrival_rate_factor", float("inf")),
                         max_intervals)


class TestBitIdenticalToReferenceLoop:
    """The kernel against the loop it replaced
    (``tests/fluid_reference.py``): same floats per interval, same final
    congestion state."""

    @staticmethod
    def both(max_intervals=2000, config=CFG, **kwargs):
        got, *got_state = fluid_burst(config=config,
                                      max_intervals=max_intervals, **kwargs)
        want, *want_state = reference(max_intervals, config, **kwargs)
        for field in FIELDS:
            assert getattr(got, field).tolist() \
                == getattr(want, field).tolist(), field
            assert getattr(got, field).dtype == getattr(want, field).dtype
        assert got_state == want_state
        return got

    @given(flow_count=st.integers(min_value=1, max_value=1500),
           demand_bytes=st.integers(min_value=1, max_value=int(25 * DRAIN)),
           effective_capacity_bytes=st.one_of(
               st.floats(min_value=1.0, max_value=5e4),      # drop-heavy
               st.floats(min_value=5e4, max_value=3e6)),     # incl. > config
           window_start_factor=st.floats(min_value=0.0, max_value=6.0),
           initial_alpha=st.floats(min_value=-0.5, max_value=1.5),
           arrival_rate_factor=st.one_of(
               st.floats(min_value=0.05, max_value=1.0),
               st.floats(min_value=1.0, max_value=8.0,
                         exclude_min=True),
               st.just(float("inf"))),
           max_intervals=st.sampled_from([0, 1, 3, 50, 2000]))
    @settings(max_examples=300, deadline=None)
    def test_any_burst(self, max_intervals, **kwargs):
        self.both(max_intervals, **kwargs)

    @given(flow_count=st.integers(min_value=1, max_value=800),
           duration=st.integers(min_value=1, max_value=20),
           contention=st.floats(min_value=0.0, max_value=1.0),
           carryover=st.floats(min_value=0.1, max_value=3.5),
           sync=st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=150, deadline=None)
    def test_fleet_shaped_bursts(self, flow_count, duration, contention,
                                 carryover, sync):
        """The argument shapes ``generate_host_trace`` produces."""
        self.both(**fleet_burst(flow_count, duration, contention, carryover,
                                sync))

    def test_other_environments(self):
        """Non-default configs reach every hoisted constant."""
        slow = FluidConfig(line_rate_bps=10e9, base_rtt_ns=100_000,
                           capacity_bytes=500_000, ecn_threshold_frac=0.2,
                           mss_bytes=9000, dctcp_g=0.25,
                           aggregate_growth_mss_per_round=2.5,
                           max_window_bytes=600_000.0,
                           growth_overshoot_factor=1.1)
        for flows, capacity, sync in ((4, 4e5, float("inf")),
                                      (60, 2e4, 1.7), (300, 5e5, 0.8)):
            self.both(config=slow, flow_count=flows, demand_bytes=6_000_000,
                      effective_capacity_bytes=capacity,
                      window_start_factor=2.0, arrival_rate_factor=sync)

    def test_drop_heavy_burst_really_drops(self):
        """The differential covers the loss path, not only clean bursts."""
        trace = self.both(flow_count=500, demand_bytes=int(3 * DRAIN),
                          effective_capacity_bytes=3e5,
                          window_start_factor=3.0, arrival_rate_factor=2.0)
        assert trace.dropped_bytes.sum() > 0
        assert trace.retransmit_bytes.sum() > 0
        assert trace.marked_bytes.sum() > 0

    def test_run_is_resumable_state(self):
        """A second burst started from the window and alpha the first
        returned continues as the reference loop does when it is handed
        its own final state."""
        demand = int(2 * DRAIN)
        constants = FluidConstants.of(CFG)
        capacity, window, alpha = burst_start(CFG, 200, demand, 1e6,
                                              arrival_rate_factor=1.5)
        state = ref_state = (window, alpha)
        for _ in range(2):
            columns = FluidColumns([], [], [], [], [])
            _, *state = run_burst(constants, 200, demand, capacity, *state,
                                  1.5, columns)
            want, *ref_state = reference_run(CFG, 200, demand, capacity,
                                             *ref_state, 1.5)
            assert columns.delivered_bytes == want.delivered_bytes.tolist()
            assert state == ref_state


# Draws for fleet_burst: (K, duration ms, contention, carry-over, arrival
# factor).
fleet_bursts = st.tuples(st.integers(min_value=1, max_value=800),
                         st.integers(min_value=1, max_value=20),
                         st.floats(min_value=0.0, max_value=1.0),
                         st.floats(min_value=0.1, max_value=3.5),
                         st.floats(min_value=0.3, max_value=3.0))


class TestKernelAgainstReferenceLoop:
    """``run_burst`` itself, as ``generate_host_trace`` drives it: several
    bursts appended to one set of columns, each against ``reference_run``
    from a fresh start."""

    @given(bursts=st.lists(fleet_bursts, min_size=2, max_size=6),
           max_intervals=st.sampled_from([1, 2, 4, 2000]))
    @settings(max_examples=150, deadline=None)
    def test_shared_columns_across_bursts(self, bursts, max_intervals):
        constants = FluidConstants.of(CFG)
        # Not empty to begin with: the kernel may only ever append.
        columns = FluidColumns([-1.0], [-2.0], [-3.0], [-4.0], [-5.0])
        expected = [[-1.0], [-2.0], [-3.0], [-4.0], [-5.0]]
        for burst in bursts:
            kwargs = fleet_burst(*burst)
            want, want_window, want_alpha = reference(max_intervals,
                                                           **kwargs)
            capacity, window, alpha = burst_start(CFG, **kwargs)
            got = run_burst(constants, kwargs["flow_count"],
                            kwargs["demand_bytes"], capacity, window, alpha,
                            kwargs["arrival_rate_factor"], columns,
                            max_intervals)
            assert got == (len(want.delivered_bytes), want_window,
                           want_alpha)
            for column, field in zip(expected, FIELDS):
                column.extend(getattr(want, field).tolist())
            assert [list(column) for column in columns] == expected

    def test_max_intervals_exhaustion(self):
        """A burst that needs 6 intervals, stopped after 4 and after 0."""
        kwargs = dict(flow_count=300, demand_bytes=int(5 * DRAIN),
                      effective_capacity_bytes=2e6,
                      window_start_factor=3.0)
        assert len(reference(**kwargs)[0].delivered_bytes) == 6
        capacity, window, alpha = burst_start(CFG, **kwargs)
        for max_intervals in (4, 0):
            want, want_window, want_alpha = reference(max_intervals,
                                                           **kwargs)
            columns = FluidColumns([], [], [], [], [])
            got = run_burst(FluidConstants.of(CFG), 300, int(5 * DRAIN),
                            capacity, window, alpha, float("inf"), columns,
                            max_intervals)
            assert got == (max_intervals, want_window, want_alpha)
            assert columns.delivered_bytes \
                == want.delivered_bytes.tolist()
            assert sum(columns.delivered_bytes) < int(5 * DRAIN) - 2

    def test_burst_start_is_the_constructors_clamp(self):
        """Capacity at most the configured one, window at least 5 % of
        ``K * MSS``, alpha inside [0, 1]."""
        assert burst_start(CFG, 10, 1000, 5e6, window_start_factor=0.0,
                           initial_alpha=1.5) == (2e6, 0.05 * 15000.0, 1.0)
        assert burst_start(CFG, 10, 1000, 5e5, window_start_factor=2.0,
                           initial_alpha=-1.0) == (5e5, 30000.0, 0.0)


class TestConservationInvariants:
    """Bookkeeping every burst must respect, stated from the model's
    description and not from its code: bytes are delivered exactly once,
    the link never runs above line rate, and a burst arriving at or below
    line rate never queues."""

    @given(flow_count=st.integers(min_value=1, max_value=1500),
           demand_bytes=st.integers(min_value=1, max_value=int(25 * DRAIN)),
           effective_capacity_bytes=st.floats(min_value=1.0, max_value=3e6),
           window_start_factor=st.floats(min_value=0.0, max_value=6.0),
           arrival_rate_factor=st.one_of(
               st.floats(min_value=0.05, max_value=1.0),
               st.floats(min_value=1.0, max_value=8.0),
               st.just(float("inf"))))
    @settings(max_examples=400, deadline=None)
    def test_any_burst(self, flow_count, demand_bytes,
                       effective_capacity_bytes, window_start_factor,
                       arrival_rate_factor):
        max_intervals = 2000
        trace, _, _ = fluid_burst(
            flow_count, demand_bytes, effective_capacity_bytes,
            max_intervals=max_intervals,
            window_start_factor=window_start_factor,
            arrival_rate_factor=arrival_rate_factor)
        slack = 1e-6
        if len(trace.delivered_bytes) < max_intervals:
            assert abs(trace.delivered_bytes.sum() - demand_bytes) <= 1.0
        else:
            assert trace.delivered_bytes.sum() <= demand_bytes + 1.0
        assert (trace.delivered_bytes >= 0.0).all()
        assert (trace.delivered_bytes <= DRAIN + slack).all()
        assert (trace.retransmit_bytes >= 0.0).all()
        assert (trace.retransmit_bytes
                <= trace.delivered_bytes + slack).all()
        assert (trace.queue_frac >= 0.0).all()
        assert (trace.queue_frac <= min(effective_capacity_bytes,
                                        CFG.capacity_bytes)
                / CFG.capacity_bytes + 1e-12).all()
        if arrival_rate_factor <= 1.0:
            assert not trace.marked_bytes.any()
            assert not trace.dropped_bytes.any()
            assert not trace.queue_frac.any()
