"""Tests for empirical CDFs."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.cdf import EmpiricalCdf

# The grid export_dict() queries, the edges, and the paper's p99.9.
QUERIED = [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
           0, 100, 99.9]


class TestEvaluate:
    def test_basic(self):
        cdf = EmpiricalCdf([1, 2, 3, 4])
        assert cdf.evaluate(0) == 0.0
        assert cdf.evaluate(2) == 0.5
        assert cdf.evaluate(4) == 1.0
        assert cdf.evaluate(100) == 1.0

    def test_empty(self):
        cdf = EmpiricalCdf([])
        assert cdf.evaluate(1) == 0.0
        assert cdf.mean() == 0.0
        assert len(cdf) == 0
        # percentile() of an empty set raises — see TestPercentiles.

    def test_nan_samples_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalCdf([1.0, float("nan"), 3.0], name="bct")

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=200),
           st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e6, max_value=1e6))
    def test_monotone(self, samples, a, b):
        cdf = EmpiricalCdf(samples)
        lo, hi = min(a, b), max(a, b)
        assert cdf.evaluate(lo) <= cdf.evaluate(hi)


class TestConstruction:
    def test_array_input_equals_list_input_and_is_left_alone(self):
        samples = np.asarray([5.0, 1.0, 3.0, 1.0])
        before = samples.copy()
        cdf = EmpiricalCdf(samples)
        assert cdf.values.tolist() == EmpiricalCdf(samples.tolist()
                                                   ).values.tolist()
        assert cdf.values.dtype == np.float64
        np.testing.assert_array_equal(samples, before)   # sorted a copy
        assert not np.shares_memory(cdf.values, samples)

    def test_integer_array_and_generator_inputs(self):
        assert EmpiricalCdf(np.asarray([3, 1, 2])).values.dtype == np.float64
        assert list(EmpiricalCdf(x * x for x in (3, 1, 2)).values) \
            == [1.0, 4.0, 9.0]

    def test_nan_in_array_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalCdf(np.asarray([1.0, np.nan]))


class TestPercentiles:
    def test_median_and_tails(self):
        # inverted_cdf percentiles: always an observed sample, never an
        # interpolated value (the default linear method would give 50.5).
        cdf = EmpiricalCdf(range(1, 101))
        assert cdf.median() == pytest.approx(50.0)
        assert cdf.percentile(99) == pytest.approx(99.0)

    def test_percentile_is_observed_sample(self):
        samples = [0.5, 2.5, 7.0, 11.0, 40.0]
        cdf = EmpiricalCdf(samples)
        for p in (1, 25, 50, 75, 90, 99, 100):
            assert cdf.percentile(p) in samples

    def test_percentile_consistent_with_evaluate(self):
        cdf = EmpiricalCdf([1.0, 2.0, 4.0, 8.0])
        for p in (25, 50, 75, 100):
            assert cdf.evaluate(cdf.percentile(p)) >= p / 100.0

    @given(st.lists(st.integers(0, 40).map(float)       # ties
                    | st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=500),
           st.sampled_from(QUERIED) | st.floats(min_value=0, max_value=100),
           st.integers(0, 500))
    def test_agrees_with_numpy_inverted_cdf_bit_for_bit(self, samples, p, k):
        """numpy is the oracle; it is only off the hot path."""
        cdf = EmpiricalCdf(samples)
        n = len(samples)
        # ``p`` as drawn, and the exact boundary 100*k/n where the rule
        # steps from one sample to the next.
        for q in (p, 100.0 * min(k, n) / n):
            got = cdf.percentile(q)
            assert got == float(np.percentile(
                np.sort(np.asarray(samples)), q, method="inverted_cdf"))
            # At a boundary n*(q/100) may land one ulp under k (numpy's
            # rule shares that), hence the ulp of slack.
            assert cdf.evaluate(got) >= q / 100.0 - 1e-15

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([1]).percentile(101)
        with pytest.raises(ValueError):
            EmpiricalCdf([1]).percentile(-0.1)
        with pytest.raises(ValueError):
            EmpiricalCdf([1]).percentile(float("nan"))

    def test_percentile_of_empty_sample_set_raises(self):
        # A percentile of nothing is undefined; silently returning 0.0
        # fabricated a plausible-looking latency for empty flow classes.
        with pytest.raises(ValueError, match="empty sample set"):
            EmpiricalCdf([]).percentile(50)

    def test_empty_error_names_the_cdf(self):
        with pytest.raises(ValueError, match="mice"):
            EmpiricalCdf([], name="mice").percentile(99)

    def test_empty_export_is_honest(self):
        out = EmpiricalCdf([], name="mice").export_dict()
        assert out["n"] == 0
        assert out["mean"] is None
        assert out["percentiles"] == {}

    def test_export_grid_is_percentile_bit_for_bit(self):
        """The export's one gather reads what nine ``percentile`` calls
        read, at every sample size up to 1000 (every index step of the
        grid's boundaries)."""
        rng = np.random.default_rng(0)
        for n in range(1, 1001):
            cdf = EmpiricalCdf(rng.lognormal(size=n))
            grid = cdf.export_dict()["percentiles"]
            assert list(grid) == [f"p{p:g}" for p in QUERIED[:9]]
            for p in QUERIED[:9]:
                value = grid[f"p{p:g}"]
                assert type(value) is float
                assert np.float64(value).tobytes() \
                    == np.float64(cdf.percentile(p)).tobytes()

    def test_mean(self):
        assert EmpiricalCdf([1, 2, 3]).mean() == 2.0


def same_float(a: float, b: float) -> bool:
    """Bit-identity, NaN included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestMeanIsNumpysMean:
    """``mean`` is ``np.mean``'s arithmetic without its wrapper: the
    same pairwise ``np.add.reduce`` and the same division, so every
    export keeps its bytes."""

    def test_every_n_up_to_1000(self):
        """n < 8 sums left to right; from n = 8 numpy sums pairwise in
        unrolled blocks, where the order of the additions changes."""
        rng = np.random.default_rng(0)
        for n in range(1, 1001):
            cdf = EmpiricalCdf(rng.lognormal(sigma=3.0, size=n))
            assert type(cdf.mean()) is float
            assert same_float(cdf.mean(), float(np.mean(cdf.values)))

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=300))
    def test_any_float_sample(self, samples):
        cdf = EmpiricalCdf(samples)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.mean(cdf.values))
            assert same_float(cdf.mean(), expected)


class TestCurve:
    def test_small_sample_full_resolution(self):
        x, y = EmpiricalCdf([3, 1, 2]).curve()
        assert list(x) == [1, 2, 3]
        assert y[-1] == 1.0

    def test_large_sample_downsampled(self):
        x, y = EmpiricalCdf(range(10_000)).curve(n_points=100)
        assert len(x) == 100
        assert (np.diff(y) >= 0).all()

    def test_empty_curve(self):
        x, y = EmpiricalCdf([]).curve()
        assert len(x) == 0 and len(y) == 0

    def test_values_sorted(self):
        cdf = EmpiricalCdf([5, 1, 3])
        assert list(cdf.values) == [1, 3, 5]
