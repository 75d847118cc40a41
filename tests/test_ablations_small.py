"""Integration tests for selected ablation runners at tiny scale.

The full ablation suite runs in CI's engine smoke run (``--all --scale
0.05``), which checks that it completes, not what it claims; these tests
pin the cheap, load-bearing ones so regressions in their claims surface in
the unit suite.
"""

import pytest

from repro.experiments import ablations

SCALE = 0.14
SEED = 1


class TestRegistry:
    def test_all_ablations_registered(self):
        assert set(ablations.ALL_ABLATIONS) == {
            "buffer", "guardrail", "scheduler", "g", "pacing", "idle",
            "predictability", "delayed_ack", "ecn_threshold", "sack",
            "rack", "fanin", "receiver_throttle", "topology",
            "service_latency",
        }


class TestGuardrail:
    def test_cap_reduces_peak_queue(self):
        result = ablations.run_ablation("guardrail", scale=SCALE, seed=SEED)
        rows = result.data["rows"]
        # Rows alternate base/capped per flow count.
        for base, capped in zip(rows[0::2], rows[1::2]):
            assert capped[3] < base[3], "cap must cut the peak queue"
            assert capped[2] == pytest.approx(base[2], rel=0.2), \
                "cap must not blow up BCT"


class TestGSweep:
    def test_g_is_not_the_lever(self):
        result = ablations.run_ablation("g", scale=SCALE, seed=SEED)
        rows = result.data["rows"]
        bcts = [row[1] for row in rows]
        # Across a 64x range of g, BCT stays within 20%.
        assert max(bcts) <= 1.2 * min(bcts)


class TestIdleRestart:
    def test_restart_is_a_noop_for_converged_windows(self):
        result = ablations.run_ablation("idle", scale=SCALE, seed=SEED)
        persistent, restarting = result.data["rows"]
        assert restarting[2] == pytest.approx(persistent[2], rel=0.1)


class TestTopologyValidation:
    def test_leafspine_matches_dumbbell(self):
        result = ablations.run_topology_validation(scale=SCALE, seed=SEED)
        dumbbell, leafspine = result.data["rows"]
        assert leafspine[1] == pytest.approx(dumbbell[1], rel=0.25)
        assert leafspine[4] == 0  # no drops either way at 96 flows
        assert dumbbell[4] == 0


class TestDelayedAck:
    def test_delayed_acks_slow_the_burst(self):
        result = ablations.run_ablation("delayed_ack", scale=SCALE,
                                     seed=SEED)
        per_packet, delayed = result.data["rows"]
        # Coarser ACK clocking stretches the burst (queueing effects vary
        # with scale; BCT inflation is the robust signature).
        assert delayed[1] > 1.2 * per_packet[1]


class TestPredictability:
    def test_out_of_sample_errors_are_small(self):
        result = ablations.run_predictability(scale=SCALE, seed=SEED)
        rows = result.data["rows"]
        assert len(rows) == 5
        for row in rows:
            assert row[6] < 0.3, f"{row[0]} p99 error too large"
