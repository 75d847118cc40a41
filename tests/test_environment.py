"""Tests for the shared experiment environment helpers."""

import json

import numpy as np
import pytest

from repro import units
from repro.core.modes import DctcpMode
from repro.experiments.environment import (CCA_FACTORIES, IncastSimConfig,
                                           production_fluid_config,
                                           run_incast_sim,
                                           scaled_incast_config)
from repro.experiments.fig5 import series_rows
from repro.experiments.runner import main as runner_main
from repro.tcp.config import TcpConfig


class TestIncastSimConfig:
    def test_demand_matches_paper_formula(self):
        cfg = IncastSimConfig(n_flows=100,
                              burst_duration_ns=units.msec(15.0))
        assert cfg.demand_bytes_per_flow == 187_500

    def test_dumbbell_sender_count_follows_flows(self):
        cfg = IncastSimConfig(n_flows=37)
        assert cfg.dumbbell.n_senders == 37

    def test_mode_model_uses_paper_parameters(self):
        model = IncastSimConfig(n_flows=10).mode_model()
        assert model.ecn_threshold_packets == 65
        assert model.queue_capacity_packets == 1333
        assert model.bdp_packets == pytest.approx(25.0)
        assert model.degenerate_point == 90

    def test_cca_registry(self):
        from repro.tcp.cca import CCA_NAMES
        assert set(CCA_FACTORIES) == {"dctcp", "reno", "swiftlike"}
        # The names a fluid config validates against, without the classes.
        assert set(CCA_NAMES) == set(CCA_FACTORIES)

    def test_guardrail_wrapping(self):
        """The ``guardrail`` scheme caps each CCA at the planned degree's
        share of the Mode-1 budget; it takes no knob."""
        from repro.tcp.cca.dctcp import Dctcp
        from repro.tcp.guardrail import CwndGuardrail, guardrail_cap_bytes
        from repro.tcp.schemes import SchemeContext, get_scheme
        cfg = IncastSimConfig(n_flows=4, scheme="guardrail")
        ctx = SchemeContext(
            sim=None, tcp=cfg.tcp, n_flows=cfg.n_flows,
            ecn_threshold_packets=cfg.dumbbell.ecn_threshold_packets,
            queue_capacity_packets=cfg.dumbbell.queue_capacity_packets,
            bdp_bytes=cfg.dumbbell.bdp_bytes, bottleneck_queue=None,
            receiver_host=None)
        scheme = get_scheme("guardrail")
        cca = scheme.install(ctx, {}).wrap_cca(Dctcp(cfg.tcp))
        assert isinstance(cca, CwndGuardrail)
        assert cca.cap_bytes == guardrail_cap_bytes(4, 65, 37_500, 1460)
        with pytest.raises(ValueError, match="does not accept"):
            IncastSimConfig(scheme="guardrail",
                            scheme_params={"cap_bytes": 3 * 1460})


class TestRunIncastSim:
    @pytest.fixture(scope="class")
    def small_result(self):
        return run_incast_sim(IncastSimConfig(
            n_flows=12, burst_duration_ns=units.msec(1.0), n_bursts=3,
            sample_flows=True))

    def test_burst_counts(self, small_result):
        assert len(small_result.burst_results) == 3
        assert len(small_result.steady_results) == 2

    def test_aligned_trace_spans_burst_plus_gap(self, small_result):
        cfg = small_result.config
        span = cfg.burst_duration_ns + cfg.inter_burst_gap_ns
        assert small_result.aligned_offsets_ns[-1] \
            == span - cfg.queue_probe_period_ns
        assert np.isfinite(small_result.aligned_queue_packets).any()

    def test_bct_inflation(self, small_result):
        assert small_result.bct_inflation \
            == pytest.approx(small_result.mean_bct_ms
                             / small_result.optimal_bct_ms)

    def test_small_incast_is_healthy(self, small_result):
        assert small_result.mode is DctcpMode.HEALTHY
        assert small_result.steady_drops == 0

    def test_flow_sampler_attached(self, small_result):
        assert small_result.flow_sampler is not None
        assert len(small_result.flow_sampler.times_ns) > 5

    def test_production_fluid_defaults(self):
        cfg = production_fluid_config()
        assert cfg.line_rate_bps == units.gbps(25.0)
        assert cfg.ecn_threshold_frac == pytest.approx(0.067)


class TestScaleRule:
    def test_scaling(self):
        cfg = scaled_incast_config({"n_flows": 100, "seed": 1}, scale=0.5)
        assert cfg.burst_duration_ns == units.msec(7.5)
        assert cfg.n_bursts == 6
        assert cfg.dumbbell.shared_buffer_bytes is None

    def test_minimums(self):
        cfg = scaled_incast_config(
            {"n_flows": 100, "seed": 1,
             "dumbbell.shared_buffer_bytes": 2_000_000}, scale=0.01)
        assert cfg.burst_duration_ns == units.msec(2.0)
        assert cfg.n_bursts == 3
        assert cfg.dumbbell.shared_buffer_bytes == 2_000_000

    def test_values_set_are_used_as_set(self):
        cfg = scaled_incast_config(
            {"burst_duration_ns": units.msec(2.0), "n_bursts": 7}, scale=1.0)
        assert cfg.burst_duration_ns == units.msec(2.0)
        assert cfg.n_bursts == 7

    def test_dotted_keys_set_one_nested_field(self):
        cfg = scaled_incast_config(
            {"n_flows": 37, "tcp.delayed_ack": True,
             "dumbbell.ecn_threshold_packets": 20}, scale=1.0)
        assert cfg.tcp == TcpConfig(delayed_ack=True)
        assert cfg.dumbbell.ecn_threshold_packets == 20
        assert cfg.dumbbell.n_senders == 37  # still derived
        assert (cfg.burst_duration_ns, cfg.n_bursts) == (
            IncastSimConfig().burst_duration_ns, IncastSimConfig().n_bursts)


class TestFig5Helpers:

    def test_series_rows_downsamples(self):
        result = run_incast_sim(IncastSimConfig(
            n_flows=6, burst_duration_ns=units.msec(1.0), n_bursts=2))
        xs, ys = series_rows(result, step_ms=0.5)
        assert len(xs) == len(ys)
        assert xs == sorted(xs)
        assert all(y >= 0 for y in ys)


class TestRunnerJsonExport:
    def test_json_dir_writes_files(self, tmp_path, capsys):
        code = runner_main(["-e", "table1", "--scale", "0.2",
                            "--json-dir", str(tmp_path)])
        assert code == 0
        path = tmp_path / "table1.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["name"] == "table1"
        assert len(doc["data"]["rows"]) == 5
