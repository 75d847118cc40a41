"""The mitigation-scheme registry and the zoo's mechanisms.

Registry gates first — the contract ``docs/MITIGATIONS.md`` documents:
unknown schemes and unknown/out-of-range knobs are rejected at config
construction, duplicate registration is loud, and the ``scheme`` axis is
cache-key visible with the default elided (pre-zoo artifacts stay
byte-identical). Then the mechanisms themselves, deterministically:
Pulser's guarded multiplicative backoff, FEC's budgeted single-loss
recovery, the watermark burst detector's hysteresis, and the
detection-scoring semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.analysis.detection import evaluate_detections
from repro.experiments.environment import (IncastSimConfig,
                                           run_incast_sim)
from repro.experiments.runner import main as runner_main
from repro.experiments.scenarios import (CrossRackIncastConfig,
                                         ElephantMiceGridConfig)
from repro.experiments.sweep import SweepAxis, SweepSpec, compile_units
from repro.measurement.watermark import WATERMARK_CHANNEL
from repro.netsim.packet import Packet
from repro.simcore.kernel import Simulator
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.fec import FecConfig, FecDecoder, FecStats
from repro.tcp.schemes import (DEFAULT_SCHEME, BaselineScheme,
                               MitigationScheme, get_scheme,
                               register_scheme, scheme_names)
from repro.tcp.schemes.detect import BurstDetector
from repro.tcp.schemes.pulser import PulserBackoff

ZOO = ("dctcp", "guardrail", "ictcp", "pulser", "fec", "detect")


class TestRegistry:
    def test_zoo_is_registered(self):
        assert set(ZOO) <= set(scheme_names())
        for name in ZOO:
            assert get_scheme(name).name == name

    def test_unknown_scheme_lists_choices(self):
        with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
            get_scheme("bogus")

    @pytest.mark.parametrize("config_cls", [
        IncastSimConfig, CrossRackIncastConfig, ElephantMiceGridConfig])
    def test_configs_reject_unknown_scheme(self, config_cls):
        with pytest.raises(ValueError, match="unknown scheme"):
            config_cls(scheme="bogus")

    def test_duplicate_registration_is_loud(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(BaselineScheme())

    def test_replace_reinstalls_a_name(self):
        original = get_scheme("dctcp")

        class Rebaseline(BaselineScheme):
            """A stand-in baseline for the replace path."""

        try:
            register_scheme(Rebaseline(), replace=True)
            assert isinstance(get_scheme("dctcp"), Rebaseline)
        finally:
            register_scheme(original, replace=True)
        assert get_scheme("dctcp") is original

    def test_nameless_scheme_rejected(self):
        class Nameless(MitigationScheme):
            """A scheme that forgot to declare its name."""

        with pytest.raises(ValueError, match="declares no name"):
            register_scheme(Nameless())

    def test_unknown_knob_rejected_listing_declared_ones(self):
        with pytest.raises(ValueError, match="knobs"):
            IncastSimConfig(scheme="pulser", scheme_params={"nope": 1})

    @pytest.mark.parametrize("scheme,params", [
        ("pulser", {"beta": 2.0}),
        ("pulser", {"degree_threshold": 0}),
        ("fec", {"k_segments": 0}),
        ("ictcp", {"budget_bytes": -1}),
        ("detect", {"period_ns": 0}),
    ])
    def test_out_of_range_knobs_rejected(self, scheme, params):
        with pytest.raises(ValueError):
            IncastSimConfig(scheme=scheme, scheme_params=params)

    def test_validate_params_merges_defaults_without_mutating(self):
        scheme = get_scheme("pulser")
        given_params = {"beta": 0.25}
        merged = scheme.validate_params(given_params)
        assert merged["beta"] == 0.25
        assert merged["degree_threshold"] == 16
        assert given_params == {"beta": 0.25}

    @pytest.mark.parametrize("backend", ["fluid"])
    def test_non_packet_backends_refuse_schemes(self, backend):
        with pytest.raises(ValueError, match="packet backend"):
            ElephantMiceGridConfig(scheme="ictcp", backend=backend)
        # The fluid model has no per-flow window to cap: a guardrail
        # there must fail, not run uncapped.
        with pytest.raises(ValueError, match="packet backend"):
            CrossRackIncastConfig(scheme="guardrail", backend=backend)

    @pytest.mark.parametrize("scheme", [
        name for name in ZOO if name != DEFAULT_SCHEME])
    @pytest.mark.parametrize("config_cls", [
        CrossRackIncastConfig, ElephantMiceGridConfig])
    def test_fluid_refuses_every_mitigation_scheme(self, config_cls,
                                                   scheme):
        # The same scheme is a valid packet config, so the refusal is
        # the backend's, not the scheme's.
        assert config_cls(scheme=scheme).scheme == scheme
        with pytest.raises(ValueError, match="packet backend"):
            config_cls(scheme=scheme, backend="fluid")

    @pytest.mark.parametrize("backend", ["fluid"])
    def test_guardrail_sweep_on_a_non_packet_backend_fails_loudly(
            self, tmp_path, capsys, backend):
        spec = tmp_path / "guard.yaml"
        spec.write_text(
            f"name: guard-{backend}\nscenario: leafspine_mix\n"
            f"fixed: {{backend: {backend}, scheme: guardrail}}\n",
            encoding="utf-8")
        code = runner_main(["sweep", "run", str(spec), "--scale", "0.05",
                            "--jobs", "1", "--no-cache"])
        assert code != 0
        assert "packet backend" in capsys.readouterr().out


class TestCacheKeyAxis:
    """``scheme`` is cache-key visible exactly like ``backend``."""

    @settings(deadline=None, max_examples=50)
    @given(st.fixed_dictionaries(
        {}, optional={"n_senders": st.integers(1, 20),
                      "flow_bytes": st.integers(2_000, 100_000),
                      "seed": st.integers(0, 1_000)}))
    def test_schemes_never_share_cache_keys(self, overrides):
        spec = SweepSpec(
            name="prop", scenario="leafspine_incast",
            axes=(SweepAxis(name="scheme", values=ZOO),),
            fixed=overrides)
        work = compile_units(spec, scale=0.25, seed=7)
        assert len({u.cache_key() for u in work}) == len(ZOO)

    @settings(deadline=None, max_examples=50)
    @given(st.sampled_from([s for s in ZOO if s != DEFAULT_SCHEME]),
           st.integers(0, 1_000))
    def test_non_default_scheme_disjoint_from_implicit_default(
            self, scheme, seed):
        default = compile_units(SweepSpec(
            name="prop", scenario="leafspine_incast",
            fixed={"seed": seed}), scale=0.25, seed=7)[0]
        explicit = compile_units(SweepSpec(
            name="prop", scenario="leafspine_incast",
            fixed={"seed": seed, "scheme": scheme}), scale=0.25, seed=7)[0]
        assert default.cache_key() != explicit.cache_key()

    def test_default_scheme_elided_from_exports(self):
        result = run_incast_sim(IncastSimConfig(
            n_flows=4, n_bursts=2, burst_duration_ns=units.msec(1.0)))
        exported = result.export_dict()
        assert "scheme" not in exported
        assert "scheme_stats" not in exported

    def test_non_default_scheme_visible_in_exports(self):
        result = run_incast_sim(IncastSimConfig(
            n_flows=4, n_bursts=2, burst_duration_ns=units.msec(1.0),
            scheme="detect"))
        exported = result.export_dict()
        assert exported["scheme"] == "detect"
        assert exported["scheme_stats"]["samples"] > 0


class TestPulserBackoff:
    def make(self, **kwargs):
        inner = Dctcp(TcpConfig())
        defaults = {"beta": 0.5, "degree_threshold": 16,
                    "min_gap_ns": units.usec(100.0)}
        return inner, PulserBackoff(inner, **{**defaults, **kwargs})

    def test_signal_at_threshold_halves_the_inner_window(self):
        inner, wrapper = self.make()
        inner.cwnd_bytes = 14_600.0
        wrapper.on_incast_signal(16, now_ns=1_000)
        assert inner.cwnd_bytes == pytest.approx(7_300.0)
        assert wrapper.backoffs == 1

    def test_signal_below_threshold_ignored(self):
        inner, wrapper = self.make()
        inner.cwnd_bytes = 14_600.0
        wrapper.on_incast_signal(15, now_ns=1_000)
        assert inner.cwnd_bytes == pytest.approx(14_600.0)
        assert wrapper.backoffs == 0
        assert wrapper.signals_seen == 1

    def test_guard_interval_limits_to_one_backoff(self):
        inner, wrapper = self.make(min_gap_ns=units.usec(100.0))
        inner.cwnd_bytes = 14_600.0
        wrapper.on_incast_signal(20, now_ns=0)
        wrapper.on_incast_signal(20, now_ns=units.usec(50.0))
        assert wrapper.backoffs == 1
        wrapper.on_incast_signal(20, now_ns=units.usec(150.0))
        assert wrapper.backoffs == 2

    def test_backoff_floors_at_one_mss(self):
        inner, wrapper = self.make(min_gap_ns=0)
        inner.cwnd_bytes = float(inner.mss)
        wrapper.on_incast_signal(20, now_ns=0)
        assert inner.cwnd_bytes == pytest.approx(float(inner.mss))

    def test_window_state_forwards_to_inner(self):
        inner, wrapper = self.make()
        wrapper.cwnd_bytes = 4_000.0
        assert inner.cwnd_bytes == pytest.approx(4_000.0)
        inner.ssthresh_bytes = 8_000.0
        assert wrapper.ssthresh_bytes == pytest.approx(8_000.0)
        assert wrapper.inner is inner


class _StubReceiver:
    """Minimal ``missing_ranges``/``deliver_ranges`` surface for decoder
    tests: holds a set of holes and records deliveries."""

    def __init__(self, missing):
        self.missing = list(missing)
        self.delivered = []

    def missing_ranges(self, start, end):
        return [r for r in self.missing if start <= r[0] and r[1] <= end]

    def deliver_ranges(self, ranges):
        self.delivered.append(list(ranges))
        self.missing = [r for r in self.missing if r not in ranges]


def repair(block, payload=1_460):
    """A repair packet covering ``block``."""
    packet = Packet(1, 0, 1, seq=block[0], payload_bytes=payload,
                    fec_block=block)
    return packet


class TestFecDecoder:
    CFG = FecConfig(k_segments=3, mss_bytes=1_460)

    def test_single_loss_recovers_without_retransmission(self):
        receiver = _StubReceiver([(1_460, 2_920)])
        decoder = FecDecoder(receiver, self.CFG, FecStats())
        decoder.on_repair(repair((0, 4_380)))
        assert receiver.delivered == [[(1_460, 2_920)]]
        assert receiver.missing == []
        assert decoder.stats.blocks_recovered == 1
        assert decoder.stats.recovered_bytes == 1_460

    def test_double_loss_needs_two_repairs(self):
        receiver = _StubReceiver([(0, 1_460), (2_920, 4_380)])
        decoder = FecDecoder(receiver, self.CFG, FecStats())
        decoder.on_repair(repair((0, 4_380)))
        assert decoder.stats.repairs_insufficient == 1
        assert receiver.delivered == []
        decoder.on_repair(repair((0, 4_380)))
        assert decoder.stats.blocks_recovered == 1
        assert receiver.missing == []

    def test_repair_with_nothing_missing_is_wasted(self):
        receiver = _StubReceiver([])
        decoder = FecDecoder(receiver, self.CFG, FecStats())
        decoder.on_repair(repair((0, 4_380)))
        assert decoder.stats.repairs_wasted == 1
        assert decoder.stats.blocks_recovered == 0

    def test_end_to_end_fec_run_emits_repairs(self):
        result = run_incast_sim(IncastSimConfig(
            n_flows=8, n_bursts=2, burst_duration_ns=units.msec(1.0),
            scheme="fec"))
        stats = result.scheme_stats
        assert stats["repair_packets_sent"] > 0
        assert stats["k_segments"] == 8


class TestBurstDetector:
    def emit(self, sim, depth, t_ns):
        sim.hooks.emit(WATERMARK_CHANNEL, "bottleneck", depth, t_ns)

    def test_one_sustained_burst_yields_one_detection(self):
        sim = Simulator()
        detector = BurstDetector(sim, "bottleneck", threshold_packets=10)
        for t, depth in enumerate([2, 11, 40, 80, 12]):
            self.emit(sim, depth, t * 100)
        assert detector.detections_ns == [100]

    def test_hysteresis_rearms_only_below_clear(self):
        sim = Simulator()
        detector = BurstDetector(sim, "bottleneck", threshold_packets=10)
        assert detector.clear_packets == 5
        samples = [(0, 12), (100, 7), (200, 12), (300, 4), (400, 15)]
        for t, depth in samples:
            self.emit(sim, depth, t)
        # 7 > clear keeps it disarmed; only the dip to 4 re-arms.
        assert detector.detections_ns == [0, 400]

    def test_other_queues_ignored_and_detach_unsubscribes(self):
        sim = Simulator()
        detector = BurstDetector(sim, "bottleneck", threshold_packets=10)
        sim.hooks.emit(WATERMARK_CHANNEL, "elsewhere", 99, 0)
        assert detector.detections_ns == []
        detector.detach()
        self.emit(sim, 99, 100)
        assert detector.samples_seen == 0


class TestDetectionScoring:
    def test_perfect_detection(self):
        scored = evaluate_detections([1_000, 11_000], [1_000, 11_000],
                                     match_window_ns=2_000)
        assert scored["precision"] == 1.0
        assert scored["recall"] == 1.0
        assert scored["latency_p50_us"] == 0.0

    def test_extra_detection_costs_precision_not_recall(self):
        scored = evaluate_detections([1_500, 5_000, 11_200],
                                     [1_000, 11_000],
                                     match_window_ns=2_000)
        assert scored["matched"] == 2
        assert scored["precision"] == pytest.approx(2 / 3)
        assert scored["recall"] == 1.0

    def test_late_detection_outside_window_unmatched(self):
        scored = evaluate_detections([5_000], [1_000],
                                     match_window_ns=2_000)
        assert scored["matched"] == 0
        assert scored["recall"] == 0.0

    def test_greedy_matching_is_order_preserving(self):
        # One detection inside both windows matches the earlier truth.
        scored = evaluate_detections([1_900], [1_000, 1_800],
                                     match_window_ns=1_000)
        assert scored["matched"] == 1
        assert scored["latency_p50_us"] == pytest.approx(0.9)
