"""Tests for time-series resampling and averaging helpers."""

import numpy as np
import pytest

from repro.analysis.series import align_and_average, resample_mean


class TestResampleMean:
    def test_averages_within_bins(self):
        times = np.asarray([0, 5, 10, 15])
        values = np.asarray([1.0, 3.0, 10.0, 20.0])
        bins, means = resample_mean(times, values, bin_ns=10)
        assert list(bins) == [0, 10]
        assert list(means) == [2.0, 15.0]

    def test_empty_bins_are_nan(self):
        times = np.asarray([0, 25])
        values = np.asarray([1.0, 2.0])
        _, means = resample_mean(times, values, bin_ns=10, end_ns=30)
        assert means[0] == 1.0
        assert np.isnan(means[1])
        assert means[2] == 2.0

    def test_window_bounds(self):
        times = np.asarray([0, 10, 20])
        values = np.asarray([1.0, 2.0, 3.0])
        _, means = resample_mean(times, values, bin_ns=10, start_ns=10,
                                 end_ns=20)
        assert list(means) == [2.0]

    def test_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            resample_mean(np.zeros(1), np.zeros(1), bin_ns=0)

    def test_empty_input(self):
        bins, means = resample_mean(np.zeros(0), np.zeros(0), bin_ns=10)
        assert len(bins) == 1
        assert np.isnan(means[0])


class TestAlignAndAverage:
    def test_averages_across_segments(self):
        seg1 = (np.asarray([0, 10]), np.asarray([10.0, 20.0]))
        seg2 = (np.asarray([0, 10]), np.asarray([30.0, 40.0]))
        offsets, avg = align_and_average([seg1, seg2], bin_ns=10,
                                         span_ns=20)
        assert list(offsets) == [0, 10]
        assert list(avg) == [20.0, 30.0]

    def test_missing_bins_use_available_segments(self):
        seg1 = (np.asarray([0]), np.asarray([10.0]))
        seg2 = (np.asarray([0, 10]), np.asarray([30.0, 40.0]))
        _, avg = align_and_average([seg1, seg2], bin_ns=10, span_ns=20)
        assert avg[0] == 20.0
        assert avg[1] == 40.0  # only segment 2 contributed

    def test_all_empty(self):
        _, avg = align_and_average([], bin_ns=10, span_ns=30)
        assert np.isnan(avg).all()
