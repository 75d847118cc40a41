"""Integration tests: every experiment runs at tiny scale and shows the
paper's qualitative signatures."""

import numpy as np
import pytest

from repro import units
from repro.core.modes import DctcpMode
from repro.experiments.engine import run_experiments
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.experiments.runner import EXPERIMENTS, build_parser, main
from repro.tcp.guardrail import guardrail_cap_bytes

SCALE = 0.1
SEED = 3


def engine(names: list[str], scale: float) -> dict:
    """``names`` through the engine, serially in-process, cache off."""
    results, _report = run_experiments(names, scale=scale, seed=SEED,
                                       jobs=1)
    return results


@pytest.fixture(scope="module")
def fleet_results():
    """fig2 and fig4 from one call, so they share the daily campaign's
    capture tiles."""
    return engine(["fig2", "fig4"], 0.15)


@pytest.fixture(scope="module")
def fig3_result():
    return engine(["fig3"], 0.12)["fig3"]


@pytest.fixture(scope="module")
def fig5_result():
    return engine(["fig5"], SCALE)["fig5"]


class TestFleetExperiments:
    def test_table1_lists_five_services(self):
        result = engine(["table1"], 0.2)["table1"]
        assert len(result.data["rows"]) == 5
        assert "storage" in result.render()

    def test_fig1_trace_shape(self):
        result = engine(["fig1"], 0.25)["fig1"]
        trace = result.data["trace"]
        assert trace.meta.service == "aggregator"
        assert 0.02 < result.data["mean_utilization"] < 0.4
        assert result.data["burst_traffic_share"] > 0.5
        assert result.data["burst_frequency_hz"] > 5

    def test_fig2_cdf_shapes(self, fleet_results):
        result = fleet_results["fig2"]
        flows = result.data["flow_cdfs"]
        # Video sees the largest incasts; messaging the smallest.
        assert flows["video"].median() > flows["messaging"].median()
        durations = result.data["duration_cdfs"]
        for service, cdf in durations.items():
            assert cdf.percentile(99) <= 40  # ms (incl. loss recovery)
            assert cdf.percentile(10) >= 1

    def test_fig2_incast_majority(self, fleet_results):
        result = fleet_results["fig2"]
        flows = result.data["flow_cdfs"]
        # Majority of aggregator/video/indexer bursts are incasts.
        for service in ("aggregator", "video", "indexer"):
            assert flows[service].evaluate(25) < 0.5

    def test_fig3_stability(self, fig3_result):
        result = fig3_result
        temporal = result.data["temporal"]
        for service in ("storage", "aggregator", "indexer", "messaging"):
            assert temporal[service].cov_of_means < 0.3, service
        cross = result.data["cross_host"]
        assert cross.cov_of_means < 0.3

    def test_fig3_video_regimes(self, fig3_result):
        result = fig3_result
        regimes = result.data.get("video_regimes")
        assert regimes is not None
        if len(regimes) == 2:
            assert np.mean(regimes[1]) > np.mean(regimes[0])

    def test_fig4_shapes(self, fleet_results):
        result = fleet_results["fig4"]
        marks = result.data["mark_cdfs"]
        # Roughly half the bursts never mark (y-axis starts at p50).
        for service, cdf in marks.items():
            assert cdf.evaluate(0.0) > 0.35, service
        # Aggregator and video mark heavily in the tail.
        assert marks["aggregator"].percentile(90) > 0.5
        assert marks["video"].percentile(90) > 0.5
        retx = result.data["retx_cdfs"]
        for service, cdf in retx.items():
            assert cdf.percentile(90) == 0.0, "retx must be rare"


class TestSimExperiments:
    def test_fig5_modes(self, fig5_result):
        result = fig5_result
        mode1 = result.data["mode1_healthy"]
        mode3 = result.data["mode3_timeouts"]
        assert mode1.steady_drops == 0
        assert mode1.mean_bct_ms < 2 * mode1.optimal_bct_ms
        assert mode3.steady_drops > 0
        assert mode3.steady_rtos > 0
        assert mode3.mode is DctcpMode.TIMEOUT
        # Mode 3 BCT explodes by an order of magnitude (RTO-bound).
        assert mode3.mean_bct_ms > 10 * mode3.optimal_bct_ms

    def test_fig5_mode2_queue_pinned(self, fig5_result):
        result = fig5_result
        mode2 = result.data["mode2_degenerate"]
        finite = mode2.aligned_queue_packets[
            np.isfinite(mode2.aligned_queue_packets)]
        # The standing queue scales like K - BDP (475 for 500 flows). At
        # this reduced scale the first bursts still carry slow-start
        # fallout (few bursts, 2 ms each), so assert on the converged
        # final burst: queue pinned high, no timeouts, BCT sane.
        assert finite.max() > 300
        last = mode2.burst_results[-1]
        assert last.rto_events == 0
        assert last.bct_ms < 10.0

    def test_fig6_spike_dominated(self):
        result = engine(["fig6"], SCALE)["fig6"]
        peaks = []
        for n_flows in (50, 100, 200, 500):
            sim_result = result.data[f"flows_{n_flows}"]
            finite = sim_result.aligned_queue_packets[
                np.isfinite(sim_result.aligned_queue_packets)]
            peaks.append(finite.max())
        # Peak queue grows with incast degree.
        assert peaks == sorted(peaks)

    def test_fig7_straggler_signatures(self):
        result = engine(["fig7"], 0.15)["fig7"]
        report = result.data["report"]
        assert report.tail_skew > 1.5
        assert report.p100_inflight.max() > 2 * 1460


class TestRunnerCli:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {"table1", "fig1", "fig2", "fig3",
                                    "fig4", "fig5", "fig6", "fig7",
                                    "ablations", "crossval", "verdict"}

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out

    def test_run_one(self, capsys):
        assert main(["-e", "table1", "--scale", "0.2"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_nothing_to_run(self, capsys):
        assert main([]) == 2

    def test_parser_defaults(self):
        # scale/seed parse as None sentinels so a --resume run can restore
        # the journal's recorded values; main() resolves them to 1.0 / 0.
        args = build_parser().parse_args([])
        assert args.scale is None
        assert args.seed is None
        assert args.journal is None
        assert args.resume is None


class TestSimEngine:
    def test_unknown_cca_rejected(self):
        with pytest.raises(ValueError):
            IncastSimConfig(cca="bbr")

    def test_incomplete_workload_raises(self):
        cfg = IncastSimConfig(n_flows=4, burst_duration_ns=units.msec(2.0),
                              n_bursts=3, max_sim_time_ns=units.msec(1))
        with pytest.raises(RuntimeError):
            run_incast_sim(cfg)

    def test_deterministic_given_seed(self):
        cfg = dict(n_flows=8, burst_duration_ns=units.msec(1.0), n_bursts=2,
                   seed=5)
        a = run_incast_sim(IncastSimConfig(**cfg))
        b = run_incast_sim(IncastSimConfig(**cfg))
        assert a.mean_bct_ms == b.mean_bct_ms
        assert list(a.queue_packets) == list(b.queue_packets)

    def test_guardrail_config_applied(self):
        cfg = IncastSimConfig(n_flows=8, burst_duration_ns=units.msec(1.0),
                              n_bursts=2, scheme="guardrail")
        result = run_incast_sim(cfg)
        assert result.mean_bct_ms > 0
        assert result.scheme_stats == {
            "cap_bytes": guardrail_cap_bytes(8, 65, 37_500, 1460)}
