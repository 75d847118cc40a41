"""Tests for incast classification and trace summarization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.core.bursts import burst_frequency_hz, detect_bursts
from repro.core.incast import (INCAST_FLOW_THRESHOLD, LOW_MODE_CUTOFF_FLOWS,
                               incast_fraction, is_incast, low_mode_fraction)
from repro.core.metrics import BurstMetrics, summarize_trace
from repro.measurement.records import HostTrace, TraceMeta
from tests.conftest import make_trace


def trace_with_flows(flow_peaks):
    """One burst per flow peak, separated by idle intervals."""
    utils, flows = [], []
    for peak in flow_peaks:
        utils.extend([1.0, 0.0])
        flows.extend([peak, 0])
    return make_trace(utils, flows=flows)


class TestIncastClassification:
    def test_threshold_is_25(self):
        assert INCAST_FLOW_THRESHOLD == 25

    def test_is_incast(self):
        bursts = detect_bursts(trace_with_flows([30, 10]))
        assert is_incast(bursts[0])
        assert not is_incast(bursts[1])

    def test_boundary_inclusive(self):
        bursts = detect_bursts(trace_with_flows([25]))
        assert is_incast(bursts[0])

    def test_incast_fraction(self):
        bursts = detect_bursts(trace_with_flows([30, 10, 40, 50]))
        assert incast_fraction(bursts) == 0.75

    def test_incast_fraction_empty(self):
        assert incast_fraction([]) == 0.0

    def test_low_mode_cutoff_is_20(self):
        assert LOW_MODE_CUTOFF_FLOWS == 20
        bursts = detect_bursts(trace_with_flows([19, 20]))
        assert low_mode_fraction(bursts) == 0.5

    def test_low_mode_fraction(self):
        bursts = detect_bursts(trace_with_flows([5, 15, 100, 200]))
        assert low_mode_fraction(bursts) == 0.5


class TestTraceSummary:
    def summary(self):
        trace = make_trace(
            [1.0, 1.0, 0.0, 1.0, 0.0],
            flows=[50, 60, 0, 10, 0],
            marked_frac=[1.0, 0.0, 0.0, 0.0, 0.0],
            retx_frac=[0.0, 0.1, 0.0, 0.0, 0.0],
            queue_frac=[0.2, 0.9, 0.0, 0.1, 0.0],
            service="svc", host_id=7, snapshot=3)
        return summarize_trace(trace)

    def test_identity(self):
        s = self.summary()
        assert (s.service, s.host_id, s.snapshot_index) == ("svc", 7, 3)

    def test_burst_count_and_frequency(self):
        s = self.summary()
        assert s.n_bursts == 2
        # 2 bursts over 5 ms.
        assert s.burst_frequency_hz == pytest.approx(400.0)

    def test_flow_counts(self):
        s = self.summary()
        assert list(s.flow_counts) == [60, 10]
        assert s.mean_flow_count() == 35.0

    def test_watermark_shared_across_bursts(self):
        """High-watermark semantics: both bursts report the trace max."""
        s = self.summary()
        assert list(s.watermark_fracs) == [0.9, 0.9]

    def test_ground_truth_peaks_differ(self):
        s = self.summary()
        assert list(s.peak_queue_fracs) == [0.9, 0.1]

    def test_incast_and_low_mode(self):
        s = self.summary()
        assert s.incast_fraction == 0.5
        assert s.low_mode_fraction == 0.5

    def test_durations(self):
        s = self.summary()
        assert list(s.durations_ms) == [2.0, 1.0]

    def test_marked_and_retx_arrays(self):
        s = self.summary()
        assert s.marked_fractions[0] == pytest.approx(0.5, abs=0.01)
        assert s.retransmit_fractions[1] == 0.0

    def test_empty_trace_summary(self):
        s = summarize_trace(make_trace([0.0, 0.0]))
        assert s.n_bursts == 0
        assert s.mean_flow_count() == 0.0
        assert s.bursts == ()

    @pytest.mark.parametrize("utils", [[0.0, 0.0], [1.0, 0.0, 1.0]])
    @pytest.mark.parametrize("with_queue", [True, False])
    def test_column_dtypes(self, utils, with_queue):
        """Pinned with and without bursts: consumers pool these columns
        with ``np.concatenate`` and must not see an object or float column
        where counts are expected."""
        s = summarize_trace(make_trace(
            utils, queue_frac=[0.3] * len(utils) if with_queue else None))
        n = s.n_bursts
        for name in ("flow_counts", "total_bytes"):
            assert getattr(s, name).dtype == np.int64, name
            assert getattr(s, name).shape == (n,), name
        for name in ("durations_ms", "mean_utilizations", "marked_fractions",
                     "retransmit_fractions", "peak_queue_fracs",
                     "watermark_fracs"):
            assert getattr(s, name).dtype == np.float64, name
            assert getattr(s, name).shape == (n,), name
        assert type(s.watermark_frac) is float

    def test_equality_compares_columns(self):
        a, b = self.summary(), self.summary()
        assert a == b and not a != b
        changed = dataclasses.replace(
            a, marked_fractions=a.marked_fractions + 0.25)
        assert a != changed
        assert a != dataclasses.replace(a, host_id=8)
        assert a != dataclasses.replace(a, flow_counts=a.flow_counts[:1])
        assert a != "svc"

    def test_pickle_round_trip(self):
        import pickle
        a = self.summary()
        b = pickle.loads(pickle.dumps(a))
        assert a == b and a.bursts == b.bursts
        assert b.flow_counts.dtype == np.int64


def assert_columnar_equals_per_burst(trace):
    """``summarize_trace`` (one reduceat pass per column) against the
    single-burst API it must agree with: exact equality, Python types."""
    summary = summarize_trace(trace)
    bursts = detect_bursts(trace)
    has_queue = trace.queue_frac is not None and len(trace.queue_frac)
    watermark = float(np.max(trace.queue_frac)) if has_queue else 0.0
    expected = tuple(BurstMetrics.from_burst(b, watermark_frac=watermark)
                     for b in bursts)
    assert summary.bursts == expected
    assert summary.n_bursts == len(bursts)
    assert summary.burst_frequency_hz == burst_frequency_hz(trace, bursts)
    assert summary.incast_fraction == incast_fraction(bursts)
    assert summary.low_mode_fraction == low_mode_fraction(bursts)
    for value in (summary.incast_fraction, summary.low_mode_fraction,
                  summary.burst_frequency_hz, summary.mean_utilization):
        assert type(value) is float
    for got, want in zip(summary.bursts, expected):
        for field in dataclasses.fields(BurstMetrics):
            assert type(getattr(got, field.name)) \
                is type(getattr(want, field.name)), field.name
            assert type(getattr(got, field.name)) in (int, float)
    return summary


@st.composite
def host_traces(draw):
    """A capture as runs of busy/idle intervals with arbitrary counters."""
    runs = draw(st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=6)),
        max_size=12))
    busy = [b for b, length in runs for _ in range(length)]
    n = len(busy)
    line_rate = draw(st.sampled_from([10e9, 25e9, 100e9]))
    interval_ns = draw(st.sampled_from([units.msec(1.0), units.usec(250.0)]))
    capacity = line_rate * interval_ns / (8 * units.NS_PER_S)
    util = [draw(st.floats(0.51, 1.0) if b else st.floats(0.0, 0.49))
            for b in busy]
    ingress = (np.asarray(util, dtype=np.float64) * capacity
               ).astype(np.int64)
    column = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    marked = (np.asarray(draw(column)) * ingress).astype(np.int64)
    retx = (np.asarray(draw(column)) * ingress).astype(np.int64)
    flows = draw(st.lists(st.integers(0, 700), min_size=n, max_size=n))
    queue = draw(st.one_of(st.none(), column))
    return HostTrace(TraceMeta("svc", 1, 2), line_rate, ingress,
                     np.asarray(flows, dtype=np.int64), marked, retx,
                     interval_ns=interval_ns,
                     queue_frac=None if queue is None else np.asarray(queue))


# An empty capture has no mean utilization (numpy warns, as it always has).
@pytest.mark.filterwarnings("ignore:Mean of empty slice",
                            "ignore:invalid value encountered")
class TestColumnarSummaryEqualsPerBurst:
    @given(trace=host_traces())
    @settings(max_examples=300, deadline=None)
    def test_drawn_traces(self, trace):
        assert_columnar_equals_per_burst(trace)

    @pytest.mark.parametrize("utils, n_bursts", [
        ([], 0),                                  # empty capture
        ([0.0, 0.2, 0.0], 0),                     # all idle
        ([1.0, 0.9, 0.8, 1.0], 1),                # all busy
        ([0.0, 1.0, 1.0], 1),                     # touches the last interval
        ([1.0], 1),                               # one interval, one burst
        ([1.0, 0.0, 1.0, 0.0, 1.0], 3),           # 1-interval bursts, and
        ([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0], 3),  # one idle interval apart
        ([0.5, 0.51, 0.5], 1),                    # threshold is exclusive
    ])
    @pytest.mark.parametrize("with_queue", [True, False])
    def test_named_edges(self, utils, n_bursts, with_queue):
        n = len(utils)
        trace = make_trace(
            utils, flows=[(7 * i) % 60 for i in range(n)],
            marked_frac=[(i % 3) / 2 for i in range(n)],
            retx_frac=[(i % 4) / 10 for i in range(n)],
            queue_frac=[(i % 5) / 5 for i in range(n)] if with_queue
            else None)
        summary = assert_columnar_equals_per_burst(trace)
        assert summary.n_bursts == n_bursts

    def test_watermark_without_queue_ground_truth_is_zero(self):
        summary = summarize_trace(make_trace([1.0, 0.0, 1.0]))
        assert list(summary.watermark_fracs) == [0.0, 0.0]
        assert list(summary.peak_queue_fracs) == [0.0, 0.0]

    def test_fleet_trace(self):
        """A real generated capture: ~100 bursts, counters in the millions."""
        from repro.workloads.services import (SERVICE_PROFILES,
                                              generate_host_trace)
        trace = generate_host_trace(SERVICE_PROFILES["aggregator"],
                                    TraceMeta("aggregator", 0),
                                    np.random.default_rng(5))
        summary = assert_columnar_equals_per_burst(trace)
        assert summary.n_bursts > 50
