"""Cross-validation: the Section 3 analysis pipeline on Section 4 packets.

The burst-analysis code consumes Millisampler interval records, so it runs
unchanged whether those records come from the synthetic fleet or from a
packet-level simulation. These tests run the three Figure 5 panels (scale
0.05: three 2 ms bursts each) through the shipped entry point with
telemetry on, read the receiver NIC's interval book as a
:class:`~repro.measurement.records.HostTrace`, and push it through the
burst pipeline, checking that the two halves of the repository agree —
and pinning where they do not, with the mechanism behind it.
"""

from dataclasses import replace

import pytest

from repro import units
from repro.core.bursts import detect_bursts
from repro.core.incast import is_incast
from repro.core.metrics import summarize_trace
from repro.experiments import fig5
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.measurement.records import TraceMeta


@pytest.fixture(scope="module")
def panels():
    """Each Figure 5 panel's run and its receiver's interval record."""
    out = {}
    for name, n_flows, shared in fig5.PANELS:
        run = run_incast_sim(replace(
            fig5.panel_config(n_flows, shared, 0.05, 0), telemetry=True))
        out[name] = run, run.telemetry.host_trace(
            "receiver", run.config.dumbbell.host_rate_bps,
            TraceMeta(service=f"fig5-{name}", host_id=n_flows))
    return out


@pytest.fixture(scope="module")
def sampled_incast(panels):
    """Mode 1: 100 flows, no loss — the panel the pipeline must match."""
    return panels["mode1_healthy"]


class TestPipelineOnPackets:
    def test_burst_count_matches_workload(self, sampled_incast):
        run, trace = sampled_incast
        bursts = detect_bursts(trace)
        # Bursts separated by 5 ms idle gaps must be detected individually.
        assert len(bursts) == len(run.burst_results) == 3

    def test_bursts_are_incasts(self, sampled_incast):
        _, trace = sampled_incast
        for burst in detect_bursts(trace):
            assert is_incast(burst)
            assert burst.max_active_flows <= 100

    def test_burst_volume_matches_demand(self, sampled_incast):
        run, trace = sampled_incast
        bursts = detect_bursts(trace)
        for burst, result in zip(bursts, run.burst_results):
            # Ingress includes headers, but bursts start at arbitrary
            # offsets within the 1 ms sampling grid, so edge intervals
            # that dip under the detection threshold trim up to ~20%.
            assert burst.total_bytes >= 0.78 * result.total_bytes
            assert burst.total_bytes <= 1.1 * result.total_bytes

    def test_burst_timing_matches_workload(self, sampled_incast):
        run, trace = sampled_incast
        bursts = detect_bursts(trace)
        for burst, result in zip(bursts, run.burst_results):
            start_ms = units.ns_to_ms(result.start_ns)
            assert abs(burst.start - start_ms) <= 1.5

    def test_marking_seen_end_to_end(self, sampled_incast):
        run, trace = sampled_incast
        # 100 flows on a 65-packet threshold: slow start marks packets, and
        # the receiver's book must see the CE bytes.
        total_marks = sum(r.marked_packets for r in run.burst_results)
        assert total_marks > 0
        assert trace.marked_bytes.sum() > 0

    def test_summary_runs_on_packet_trace(self, sampled_incast):
        _, trace = sampled_incast
        summary = summarize_trace(trace)
        assert summary.n_bursts == 3
        assert summary.incast_fraction == 1.0
        assert summary.mean_utilization < 1.0


#: panel -> (bursts the receiver's record shows, peak 1 ms degree of each).
#: Workload bursts per run: 3; flows per panel: 100 / 500 / 1000.
SECTION3_OVER_SECTION4 = {
    "mode1_healthy": (3, [95, 100, 100]),
    "mode2_degenerate": (3, [244, 311, 378]),
    "mode3_timeouts": (6, [519, 523, 517, 435, 559, 407]),
}


class TestSection3OverSection4:
    """What Section 3's detector reports for each Section 4 mode.

    Two mechanisms keep it from reporting what the workload was asked
    for (DESIGN.md § *In-sim telemetry*):

    - degree: once the standing queue's delay exceeds 1 ms, a 1 ms
      interval sees about ``K × 1 ms / RTT`` of the K flows — Mode 2's
      full 1,333-packet queue is ~1.6 ms at 10 Gbps, so ~310 of 500;
    - count: a min-RTO tail returns ~200 ms after its burst as its own
      one-interval burst, so Mode 3 shows six bursts for three.
    """

    @pytest.mark.parametrize("panel", sorted(SECTION3_OVER_SECTION4))
    def test_bursts_and_degrees_are_pinned(self, panels, panel):
        run, trace = panels[panel]
        found, degrees = SECTION3_OVER_SECTION4[panel]
        bursts = detect_bursts(trace)
        assert len(run.burst_results) == 3
        assert len(bursts) == found
        assert [b.max_active_flows for b in bursts] == degrees
        summary = summarize_trace(trace)
        assert summary.n_bursts == found
        assert summary.incast_fraction == 1.0

    def test_mode3_rto_tails_are_bursts_of_their_own(self, panels):
        run, trace = panels["mode3_timeouts"]
        min_rto_ms = units.ns_to_ms(run.config.tcp.min_rto_ns)
        bursts = detect_bursts(trace)
        assert run.telemetry.event_counts["rto"] == 1453
        for result, (head, tail) in zip(run.burst_results,
                                        zip(bursts[::2], bursts[1::2])):
            # The head is the burst as sent; the tail is the same burst's
            # timed-out segments, one minimum RTO later and before the
            # burst completes.
            assert result.rto_events > 0
            assert abs(head.start - units.ns_to_ms(result.start_ns)) <= 1
            assert tail.duration_ms == 1.0
            assert abs(tail.start - head.start - min_rto_ms) <= 1
            assert tail.start <= units.ns_to_ms(result.complete_ns)


class TestModeAgreement:
    def test_fluid_and_packet_degenerate_points_agree(self):
        """The fluid model's degenerate point and the packet model's mode
        boundary derive from the same arithmetic."""
        from repro.netsim.fluid import FluidConfig, degenerate_point_flows
        cfg = IncastSimConfig(n_flows=10)
        packet_k = cfg.mode_model().degenerate_point
        fluid = FluidConfig(line_rate_bps=cfg.dumbbell.host_rate_bps,
                            base_rtt_ns=cfg.dumbbell.base_rtt_ns,
                            capacity_bytes=1333 * 1500,
                            ecn_threshold_frac=65 / 1333.0)
        fluid_k = degenerate_point_flows(fluid)
        assert abs(packet_k - fluid_k) <= 3
