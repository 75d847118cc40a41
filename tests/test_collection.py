"""Tests for fleet campaign orchestration."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.measurement.collection import (CampaignConfig, run_campaign,
                                          run_service_campaign)
from repro.workloads.services import SERVICE_PROFILES


class TestConfig:
    def test_daily_defaults(self):
        cfg = CampaignConfig()
        assert cfg.hosts_per_service == 20
        assert cfg.n_snapshots == 9

    def test_stability_defaults_to_108_snapshots(self):
        cfg = CampaignConfig.stability()
        assert cfg.n_snapshots == 108

    def test_rejects_unknown_service(self):
        with pytest.raises(ValueError):
            CampaignConfig(services=("nope",))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            CampaignConfig(hosts_per_service=0)
        with pytest.raises(ValueError):
            CampaignConfig(n_snapshots=0)

    @pytest.mark.parametrize("field,value", [
        ("trace_duration_ms", 0), ("trace_duration_ms", -5),
        ("snapshot_spacing_s", -1.0)])
    def test_rejects_bad_timing(self, field, value):
        with pytest.raises(ValueError, match=field):
            CampaignConfig(**{field: value})

    def test_zero_spacing_is_allowed(self):
        # Every snapshot at t=0 is a degenerate but well-defined campaign.
        assert CampaignConfig(snapshot_spacing_s=0.0).snapshot_spacing_s \
            == 0.0


class TestRun:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(CampaignConfig(
            services=("storage", "video"), hosts_per_service=3,
            n_snapshots=2, trace_duration_ms=400, seed=5))

    def test_summary_counts(self, campaign):
        assert set(campaign.summaries) == {"storage", "video"}
        assert len(campaign.summaries["storage"]) == 6  # 3 hosts x 2 snaps

    def test_summaries_carry_identity(self, campaign):
        hosts = {s.host_id for s in campaign.summaries["storage"]}
        snaps = {s.snapshot_index for s in campaign.summaries["storage"]}
        assert hosts == {0, 1, 2}
        assert snaps == {0, 1}

    def test_pooled_concatenates(self, campaign):
        pooled = campaign.pooled("video", "flow_counts")
        per_trace = sum(len(s.flow_counts)
                        for s in campaign.summaries["video"])
        assert len(pooled) == per_trace

    def test_burst_frequencies_one_per_trace(self, campaign):
        assert len(campaign.burst_frequencies("storage")) == 6

    def test_regimes_recorded(self, campaign):
        assert len(campaign.regimes["video"]) == 2
        assert campaign.regimes["storage"] == [0, 0]

    def test_traces_not_kept_by_default(self, campaign):
        assert campaign.traces == {}

    def test_deterministic_given_seed(self):
        cfg = CampaignConfig(services=("messaging",), hosts_per_service=2,
                             n_snapshots=1, trace_duration_ms=300, seed=9)
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert (a.pooled("messaging", "flow_counts")
                == b.pooled("messaging", "flow_counts")).all()

    def test_keep_traces(self):
        campaign = run_campaign(CampaignConfig(
            services=("messaging",), hosts_per_service=1, n_snapshots=2,
            trace_duration_ms=200, keep_traces=True))
        assert len(campaign.traces["messaging"]) == 2

    def test_pooled_empty_metric(self):
        campaign = run_campaign(CampaignConfig(
            services=("messaging",), hosts_per_service=1, n_snapshots=1,
            trace_duration_ms=50, seed=123))
        pooled = campaign.pooled("messaging", "flow_counts")
        assert isinstance(pooled, np.ndarray)

    def test_pooled_service_without_bursts(self):
        campaign = run_campaign(CampaignConfig(
            services=("messaging",), hosts_per_service=2, n_snapshots=1,
            trace_duration_ms=5, seed=1))
        assert [s.n_bursts for s in campaign.summaries["messaging"]] \
            == [0, 0]
        for attribute in ("flow_counts", "durations_ms", "watermark_fracs"):
            pooled = campaign.pooled("messaging", attribute)
            assert pooled.shape == (0,) and pooled.dtype == np.float64


class TestNoPerBurstObjects:
    """Generate -> summarize works on trace-level columns: no fluid-model,
    detection or metric object per burst, no array per burst."""

    def test_construction_counts(self, monkeypatch):
        from repro.core.bursts import Burst
        from repro.core.metrics import BurstMetrics
        from repro.measurement.collection import run_service_campaign

        built = {cls.__name__: 0 for cls in (BurstMetrics, Burst)}

        def counting(cls, method):
            original = getattr(cls, method)

            def counted(self, *args, **kwargs):
                built[cls.__name__] += 1
                original(self, *args, **kwargs)
            monkeypatch.setattr(cls, method, counted)

        counting(BurstMetrics, "__init__")
        # A frozen dataclass's generated __init__ calls __post_init__.
        counting(Burst, "__post_init__")
        conversions = []
        asarray = np.asarray
        monkeypatch.setattr(
            np, "asarray",
            lambda *args, **kwargs: (conversions.append(1),
                                     asarray(*args, **kwargs))[1])

        cfg = CampaignConfig(services=("aggregator",), hosts_per_service=2,
                             n_snapshots=2, seed=4)
        summaries, _, _ = run_service_campaign(cfg, "aggregator")
        monkeypatch.undo()

        n_traces, n_bursts = len(summaries), sum(s.n_bursts
                                                 for s in summaries)
        assert n_traces == 4 and n_bursts > 200
        assert built == {"BurstMetrics": 0, "Burst": 0}
        # A fixed few dozen per capture (columns, RNG streams, the trace
        # record), where one array per burst and column would be 5 x 292.
        assert len(conversions) < n_bursts
        # Rows are still there for whoever asks.
        assert len(summaries[0].bursts) == summaries[0].n_bursts


class TestSamplingIsADailyPrefix:
    """At scale 0.5 Table 1's sampling campaign (4 hosts x 2 snapshots)
    is a corner of the daily campaign (10 hosts x 4 snapshots): the RNG
    streams are named by (seed, service, host, snapshot), the regime
    sequence is a Markov chain drawn one snapshot at a time, so every
    sampling capture is the daily capture at the same (host, snapshot).
    The fleet unit plan relies on this: the sampling box is the daily
    campaign's first tile per service, so ``fleet_study`` generates those
    40 captures once (``tests/test_fleet_tiles.py``)."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_sampling_capture_is_the_daily_capture(self, seed):
        from repro.measurement.collection import (daily_campaign_config,
                                                  sampling_campaign_config)
        sampling = sampling_campaign_config(0.5, seed)
        daily = daily_campaign_config(0.5, seed)
        assert (sampling.hosts_per_service, sampling.n_snapshots) == (4, 2)
        assert (daily.hosts_per_service, daily.n_snapshots) == (10, 4)
        assert sampling == replace(daily, hosts_per_service=4,
                                   n_snapshots=2)
        for service in SERVICE_PROFILES:
            small, small_regimes, _ = run_service_campaign(sampling,
                                                           service)
            big, big_regimes, _ = run_service_campaign(daily, service)
            assert small_regimes == big_regimes[:2]
            for host in range(4):
                for snap in range(2):
                    assert pickle.dumps(small[host * 2 + snap]) \
                        == pickle.dumps(big[host * 4 + snap]), \
                        (service, host, snap)
