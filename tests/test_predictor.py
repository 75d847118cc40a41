"""Tests for incast-degree prediction and guardrail advice."""

import numpy as np
import pytest

from repro.core.predictor import (GuardrailAdvisor, IncastDegreePredictor,
                                  QuantileTracker)
from repro.tcp.guardrail import guardrail_cap_bytes


class TestQuantileTracker:
    def test_exact_on_small_windows(self):
        tracker = QuantileTracker()
        for value in range(1, 101):
            tracker.add(value)
        assert tracker.quantile(0.5) == pytest.approx(50.5)
        assert tracker.quantile(1.0) == 100

    def test_sliding_window_evicts(self):
        tracker = QuantileTracker(window=10)
        for value in [1000.0] * 10 + [1.0] * 10:
            tracker.add(value)
        assert tracker.quantile(1.0) == 1.0

    def test_empty(self):
        assert QuantileTracker().quantile(0.99) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileTracker(window=0)
        with pytest.raises(ValueError):
            QuantileTracker().quantile(1.5)

    def test_len(self):
        tracker = QuantileTracker()
        tracker.add(1.0)
        assert len(tracker) == 1


class TestPredictor:
    def test_mean_tracks_constant_input(self):
        predictor = IncastDegreePredictor()
        for _ in range(100):
            predictor.observe_burst(200.0)
        forecast = predictor.forecast()
        assert forecast.mean == pytest.approx(200.0)
        assert forecast.samples == 100

    def test_p99_from_distribution(self):
        predictor = IncastDegreePredictor()
        rng = np.random.default_rng(0)
        counts = rng.lognormal(np.log(150), 0.4, size=3000)
        predictor.observe_snapshot(counts)
        expected = float(np.quantile(counts, 0.99))
        assert predictor.forecast().p99 == pytest.approx(expected, rel=0.05)

    def test_stability_requires_consistent_snapshots(self):
        predictor = IncastDegreePredictor()
        for _ in range(5):
            predictor.observe_snapshot([200.0] * 50)
        assert predictor.is_stable()

    def test_instability_detected(self):
        predictor = IncastDegreePredictor()
        predictor.observe_snapshot([50.0] * 50)
        predictor.observe_snapshot([500.0] * 50)
        assert not predictor.is_stable()

    def test_single_snapshot_not_stable(self):
        predictor = IncastDegreePredictor()
        predictor.observe_snapshot([100.0] * 10)
        assert not predictor.is_stable()

    def test_ewma_adapts_to_shift(self):
        predictor = IncastDegreePredictor(ewma_gain=0.2)
        for _ in range(50):
            predictor.observe_burst(100.0)
        for _ in range(50):
            predictor.observe_burst(300.0)
        assert predictor.forecast().mean > 250.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IncastDegreePredictor().observe_burst(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            IncastDegreePredictor(ewma_gain=0.0)


class TestAdvisor:
    def advisor(self):
        return GuardrailAdvisor(ecn_threshold_packets=65, bdp_bytes=37_500,
                                mss_bytes=1460)

    def test_cap_matches_guardrail_formula(self):
        advisor = self.advisor()
        assert advisor.cap_for_degree(100) \
            == guardrail_cap_bytes(100, 65, 37_500, 1460)

    def test_advises_for_stable_service(self):
        predictor = IncastDegreePredictor()
        for _ in range(5):
            predictor.observe_snapshot([150.0] * 100)
        cap = self.advisor().advise(predictor)
        assert cap == guardrail_cap_bytes(150, 65, 37_500, 1460)

    def test_declines_for_unstable_service(self):
        predictor = IncastDegreePredictor()
        predictor.observe_snapshot([10.0] * 50)
        predictor.observe_snapshot([900.0] * 50)
        assert self.advisor().advise(predictor) is None

    def test_declines_without_history(self):
        assert self.advisor().advise(IncastDegreePredictor()) is None
