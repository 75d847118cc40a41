"""Tests for the synthetic production-service fleet."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.measurement.records import TraceMeta
from repro.netsim.fluid import FluidConfig, burst_start
from repro.workloads import services
from repro.workloads.services import (SERVICE_PROFILES, ServiceProfile,
                                      generate_host_trace,
                                      host_rate_multiplier, regime_sequence)


def rng(seed=0):
    return np.random.default_rng(seed)


# Positions in ServiceProfile.draw_burst's tuple.
DURATION, FLOWS, SYNC, CARRYOVER, CONTENTION, NOISE = range(6)


def draws(profile, generator, n, median=None):
    """``n`` bursts' draws from one generator (around ``median``, else the
    profile's own flow-count median)."""
    log_median = np.log(median if median is not None
                        else profile.flow_median)
    return [profile.draw_burst(generator, log_median) for _ in range(n)]


def column(rows, position):
    return np.asarray([row[position] for row in rows])


class TestProfiles:
    def test_table1_services_present(self):
        assert list(SERVICE_PROFILES) == ["storage", "aggregator",
                                          "indexer", "messaging", "video"]

    def test_descriptions_match_table1(self):
        assert SERVICE_PROFILES["storage"].description \
            == "Distributed key-value store"
        assert SERVICE_PROFILES["video"].description \
            == "Video analytics service"

    def test_duration_within_bounds(self):
        profile = SERVICE_PROFILES["aggregator"]
        durations = [draws(profile, rng(i), 1)[0][DURATION]
                     for i in range(500)]
        assert all(1 <= d <= 20 for d in durations)

    def test_duration_mostly_short(self):
        profile = SERVICE_PROFILES["storage"]
        durations = column(draws(profile, rng(1), 2000), DURATION)
        assert np.mean(durations <= 2) > 0.5

    def test_flow_count_capped(self):
        profile = SERVICE_PROFILES["video"]
        flows = column(draws(profile, rng(2), 2000), FLOWS)
        assert flows.max() <= profile.flow_cap
        assert flows.min() >= 1

    def test_storage_bimodal(self):
        profile = SERVICE_PROFILES["storage"]
        flows = column(draws(profile, rng(3), 4000), FLOWS)
        low_frac = np.mean(flows < 21)
        assert 0.3 < low_frac < 0.6  # the paper's 10-45% cliff, upper end

    def test_regime_median_shifts_flow_count(self):
        profile = SERVICE_PROFILES["video"]
        low = column(draws(profile, rng(4), 2000, median=225.0), FLOWS)
        high = column(draws(profile, rng(4), 2000, median=275.0), FLOWS)
        assert high.mean() > low.mean()

    def test_carryover_capped(self):
        profile = SERVICE_PROFILES["aggregator"]
        carries = column(draws(profile, rng(5), 1000), CARRYOVER)
        assert ((0.1 <= carries) & (carries <= 3.5)).all()

    def test_contention_in_unit_interval(self):
        profile = SERVICE_PROFILES["storage"]
        contention = column(draws(profile, rng(6), 1000), CONTENTION)
        assert ((0.0 <= contention) & (contention < 1.0)).all()


class TestRegimes:
    def test_non_regime_services_stay_at_zero(self):
        profile = SERVICE_PROFILES["storage"]
        assert regime_sequence(profile, 10, rng()) == [0] * 10

    def test_video_switches_regimes(self):
        profile = SERVICE_PROFILES["video"]
        sequence = regime_sequence(profile, 100, rng(7))
        assert set(sequence) == {0, 1}

    def test_regime_median_lookup(self):
        profile = SERVICE_PROFILES["video"]
        assert profile.regime_median(0) == 225.0
        assert profile.regime_median(1) == 275.0
        assert SERVICE_PROFILES["storage"].regime_median(0) is None

    def test_host_rate_multiplier_positive(self):
        profile = SERVICE_PROFILES["indexer"]
        assert all(host_rate_multiplier(profile, rng(i)) > 0
                   for i in range(50))


class TestTraceGeneration:
    def make_trace(self, service="aggregator", seed=0, duration_ms=500):
        return generate_host_trace(
            SERVICE_PROFILES[service],
            TraceMeta(service=service, host_id=0), rng(seed),
            duration_ms=duration_ms)

    def test_shape(self):
        trace = self.make_trace(duration_ms=300)
        assert trace.n_intervals == 300
        assert trace.queue_frac is not None

    def test_deterministic_for_seed(self):
        a = self.make_trace(seed=11)
        b = self.make_trace(seed=11)
        assert (a.ingress_bytes == b.ingress_bytes).all()
        assert (a.marked_bytes == b.marked_bytes).all()

    def test_different_seeds_differ(self):
        a = self.make_trace(seed=1)
        b = self.make_trace(seed=2)
        assert not (a.ingress_bytes == b.ingress_bytes).all()

    def test_ingress_never_exceeds_line_rate(self):
        trace = self.make_trace()
        assert (trace.utilization() <= 1.0 + 1e-9).all()

    def test_marked_and_retx_bounded_by_ingress(self):
        trace = self.make_trace()
        assert (trace.marked_bytes <= trace.ingress_bytes).all()
        assert (trace.retransmit_bytes <= trace.ingress_bytes).all()

    def test_contains_bursts_and_background(self):
        trace = self.make_trace(duration_ms=1000)
        util = trace.utilization()
        assert (util > 0.5).any(), "expected line-rate bursts"
        assert (util < 0.1).any(), "expected idle background"

    def test_flows_jump_during_bursts(self):
        trace = self.make_trace(duration_ms=1000)
        bursty = trace.utilization() > 0.5
        assert trace.active_flows[bursty].max() >= 25

    def test_rate_multiplier_scales_burst_count(self):
        lo = generate_host_trace(
            SERVICE_PROFILES["aggregator"],
            TraceMeta(service="aggregator", host_id=0), rng(3),
            duration_ms=1000, rate_multiplier=0.5)
        hi = generate_host_trace(
            SERVICE_PROFILES["aggregator"],
            TraceMeta(service="aggregator", host_id=0), rng(3),
            duration_ms=1000, rate_multiplier=2.0)
        assert (hi.utilization() > 0.5).sum() > (lo.utilization() > 0.5).sum()

    def test_custom_fluid_config(self):
        cfg = FluidConfig(line_rate_bps=10e9)
        trace = generate_host_trace(
            SERVICE_PROFILES["messaging"],
            TraceMeta(service="messaging", host_id=0), rng(0),
            duration_ms=200, fluid_config=cfg)
        assert trace.line_rate_bps == 10e9


def record_run_burst(monkeypatch):
    """Hook the fluid kernel where ``generate_host_trace`` calls it; the
    returned list fills with one ``(args, result)`` per burst."""
    calls, original = [], services.run_burst

    def recording_run_burst(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(services, "run_burst", recording_run_burst)
    return calls


class TestGeneratorKeepsTheFluidInputChecks:
    """``generate_host_trace`` hoists the fluid constants out of its burst
    loop; a profile or environment that yields a non-positive input must
    still be refused, with ``burst_start``'s own message."""

    @staticmethod
    def constructor_message(**bad):
        kwargs = dict(flow_count=10, demand_bytes=1000,
                      effective_capacity_bytes=1e6, arrival_rate_factor=1.0)
        with pytest.raises(ValueError) as raised:
            burst_start(FluidConfig(), **{**kwargs, **bad})
        return str(raised.value)

    @pytest.mark.parametrize("profile_changes, config_changes, bad", [
        ({"flow_cap": 0}, {}, {"flow_count": 0}),
        ({}, {"line_rate_bps": 0.0}, {"demand_bytes": 0}),
        ({}, {"capacity_bytes": 0}, {"effective_capacity_bytes": 0.0}),
        ({"sync_log_mean": -np.inf}, {}, {"arrival_rate_factor": 0.0}),
    ])
    def test_non_positive_inputs(self, profile_changes, config_changes, bad):
        profile = dataclasses.replace(SERVICE_PROFILES["indexer"],
                                      **profile_changes)
        with pytest.raises(ValueError) as raised:
            generate_host_trace(profile, TraceMeta("indexer", 0), rng(0),
                                fluid_config=FluidConfig(**config_changes))
        assert str(raised.value) == self.constructor_message(**bad)

    def test_capacity_and_window_clamps(self, monkeypatch):
        """What reaches the kernel is ``burst_start``'s clamp: capacity
        no larger than configured, window no larger than
        ``max_window_bytes``."""
        cfg = FluidConfig(max_window_bytes=20_000.0)
        calls = record_run_burst(monkeypatch)
        generate_host_trace(SERVICE_PROFILES["video"], TraceMeta("video", 0),
                            rng(0), duration_ms=300, fluid_config=cfg)
        # (constants, K, demand, capacity, window, alpha, arrival factor, ...)
        seen = [args[3:6] for args, _ in calls]
        assert len(seen) > 5
        assert all(0.25 * cfg.capacity_bytes <= capacity
                   <= cfg.capacity_bytes for capacity, _, _ in seen)
        assert {window for _, window, _ in seen} == {20_000.0}
        assert {alpha for _, _, alpha in seen} == {0.5}


class RecordingGenerator:
    """A ``numpy`` generator that remembers its ``exponential`` draws (the
    burst arrival gaps); every other draw passes straight through."""

    def __init__(self, generator):
        self._generator = generator
        self.gaps = []

    def exponential(self, scale):
        gap = self._generator.exponential(scale)
        self.gaps.append(gap)
        return gap

    def __getattr__(self, name):
        return getattr(self._generator, name)


class TestGeneratorAgainstDetector:
    """What the burst detector finds in a generated capture, against what
    the generator put there."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("service", list(SERVICE_PROFILES))
    def test_detected_runs_sit_inside_generated_bursts(self, service, seed,
                                                       monkeypatch):
        from repro.core.bursts import detect_bursts
        from repro.core.metrics import BurstMetrics, summarize_trace

        calls = record_run_burst(monkeypatch)
        generator = RecordingGenerator(rng(seed))
        trace = generate_host_trace(SERVICE_PROFILES[service],
                                    TraceMeta(service, 0), generator,
                                    regime_index=seed % 2)
        # The arrival process, replayed: a gap of at least 1 ms, a burst,
        # and the clock moves to the burst's end.
        lengths = [result[0] for _, result in calls]
        spans, t = [], 0.0
        for gap, n_intervals in zip(generator.gaps, lengths):
            start = int(t + max(gap, 1.0))
            t = start + n_intervals
            spans.append((start, min(start + n_intervals,
                                     trace.n_intervals)))
        assert len(spans) == len(lengths) == len(generator.gaps) - 1

        detected = detect_bursts(trace)
        assert detected
        for burst in detected:
            holders = [span for span in spans
                       if span[0] <= burst.start and burst.end <= span[1]]
            assert len(holders) == 1, (burst.start, burst.end)

        summary = summarize_trace(trace)
        rows = [BurstMetrics.from_burst(b) for b in detected]
        assert summary.durations_ms.tolist() \
            == [row.duration_ms for row in rows]
        assert summary.flow_counts.tolist() \
            == [row.max_active_flows for row in rows]


def trace_digest(trace):
    """sha256 over dtype and bytes of the five generated columns."""
    h = hashlib.sha256()
    for column in (trace.ingress_bytes, trace.active_flows,
                   trace.marked_bytes, trace.retransmit_bytes,
                   trace.queue_frac):
        h.update(str(column.dtype).encode())
        h.update(column.tobytes())
    return h.hexdigest()


def rng_state_digest(generator):
    """sha256 of ``bit_generator.state``: equal digests, equal states."""
    return hashlib.sha256(json.dumps(generator.bit_generator.state,
                                     sort_keys=True).encode()).hexdigest()


# (service, seed) -> (trace digest, generator state after the call), as the
# per-burst slice-writing generate_host_trace produced them (commit b6f1606)
# for a default 2 s capture with regime_index = seed % 2.
PINNED_CAPTURES = {
    ("storage", 0): (
        "bbb9ecaa1b26bf1eb2aa6e376ae4e30ca57c3e7031af6d117595b53d3aed0034",
        "fc027dc43262f80058f33e21331e0f634b0e5c87d5de7eccf54d4cd7f0c862ee"),
    ("storage", 7): (
        "de96002648a05b5fde0e8d3495114feda6d8785aa159cc55e36b8a34e725b8ff",
        "8953384ca4c1b66906fe5252130b53abb4ca2bfe8e268530642ba542fedd20ef"),
    ("aggregator", 0): (
        "252d4ecc1f23096b9695db83bdc7a076e02ce5d99c45a19ffb147861880105f2",
        "ffac0643fcd4043dd1e61c61c171da5035cc5340e5f637283b0bce9bc9f10f96"),
    ("aggregator", 7): (
        "a96e5f08ed136cc14502004f2a37b5df902d73b11a6bf936d4860eb4b0ffadcd",
        "eb6b5a078edad812ac76ae5ed736291386132da8533ff759ea503fcb8bd5255b"),
    ("indexer", 0): (
        "f19f55a27c5f2a946983e68dd1912f68f878b6cbc941eadea52fafae9c96b25a",
        "0ddd6718d42a23d60eba975748a454c532aec63359f1ed44fef7ec62b4065d69"),
    ("indexer", 7): (
        "7bd6172997a72b8365f0df65d8a063e5ff954970e92c1066d8d266dd9f32a00e",
        "ecf607220182d7727dd88fb05d11c603e30afe7490cdeeb2f0241286ff10a647"),
    ("messaging", 0): (
        "70dc78bf9a33846a7605fbffd67f8c068002a77ed6fd92281bf05f175ef79e43",
        "efee75c9ea72eedf5c4c23b55df49da594f1785911d326e266fe1e8a9d201218"),
    ("messaging", 7): (
        "82c3ee1c4238aa2d595980d6269743ceecd56f71f0fbdec42e91231f9b7b5948",
        "c041cbf32daa4263243c6f6a16a63fdfb17ec7e065b98f26327fa041afaecd66"),
    ("video", 0): (
        "6abb199e30a54e43e33a73c1dfe5f8236f92161aa7a3e5c1847bea1d0857ac87",
        "8917540e164b675f8a3e8cf44a426dd06283d9c8e33624e3bda907684dcbc9d5"),
    ("video", 7): (
        "23bebe4cdf3e24a1b013d8a537dea0c7fb9adfc8567c2bfc38960d453222b1d8",
        "6a27c3e355aaf0bd7771501a7b3ecb3798f4f4e102d8c8bdd5966eb9cff488dc"),
}

# (service, seed) -> the same pair for a 60 ms capture whose last burst
# runs past the end of the capture (same commit).
PINNED_TRUNCATED = {
    ("aggregator", 0): (
        "1100a746501e312d3037b5e3143bbf4a5cdb2c71fb454f7efda4821d3c87a116",
        "fbeea0c9e917dfa0f4163fbf3d8624ba1bd3c5a50058cc295aff536cf6bedff3"),
    ("video", 2): (
        "8588021c7bf220280a24cbe9ab31f54fb58cd97ccedddca6631e3b3d65d17118",
        "2e21f3c1fa5ea623056d0c352597e6be25727577fe3e349407d6d970b1a03a5b"),
}


class TestGeneratedBytesArePinned:
    """The bulk column write must reproduce the per-burst slice writes bit
    for bit, and must not move a single RNG draw: every later capture of a
    campaign reads the same generator."""

    @pytest.mark.parametrize("service, seed", list(PINNED_CAPTURES))
    def test_two_second_captures(self, service, seed):
        generator = rng(seed)
        trace = generate_host_trace(
            SERVICE_PROFILES[service], TraceMeta(service, 0), generator,
            regime_index=seed % 2)
        assert (trace_digest(trace), rng_state_digest(generator)) \
            == PINNED_CAPTURES[service, seed]

    @pytest.mark.parametrize("service, seed", list(PINNED_TRUNCATED))
    def test_burst_cut_by_end_of_capture(self, service, seed, monkeypatch):
        calls = record_run_burst(monkeypatch)
        generator = rng(seed)
        trace = generate_host_trace(
            SERVICE_PROFILES[service], TraceMeta(service, 0), generator,
            duration_ms=60)
        assert (trace_digest(trace), rng_state_digest(generator)) \
            == PINNED_TRUNCATED[service, seed]
        # The case is what it says: the capture ends inside the last burst
        # (a run of line-rate intervals shorter than the burst it came from).
        busy = (trace.utilization() > 0.5).tolist()
        tail = len(busy) - 1 - busy[::-1].index(False)
        last_burst_intervals = calls[-1][1][0]
        assert busy[-1] and 0 < len(busy) - 1 - tail < last_burst_intervals

    def test_capture_without_any_burst(self, monkeypatch):
        def no_run_burst(*args, **kwargs):
            raise AssertionError("no burst should have been generated")

        monkeypatch.setattr(services, "run_burst", no_run_burst)
        quiet = dataclasses.replace(SERVICE_PROFILES["messaging"],
                                    burst_rate_hz=1e-9)
        generator, twin = rng(3), rng(3)
        trace = generate_host_trace(quiet, TraceMeta("messaging", 0),
                                    generator, duration_ms=200)
        assert not trace.marked_bytes.any()
        assert not trace.retransmit_bytes.any()
        assert not trace.queue_frac.any()
        assert (trace.utilization() <= 0.02).all()
        assert (trace.active_flows <= 8).all()
        # One arrival gap, then the background fill: nothing else was drawn.
        twin.exponential(1.0)
        twin.uniform(size=200)
        twin.integers(0, 9, size=200)
        assert generator.bit_generator.state == twin.bit_generator.state


def reference_draws(profile, generator, branches=None):
    """The oracle for ``draw_burst``: one burst's six draws made one numpy
    call at a time, in stream order, clamped with ``np.clip``. Adds the
    flow-count branch it took to ``branches``."""
    duration = int(np.clip(generator.geometric(profile.duration_geom_p),
                           1, profile.max_duration_ms))
    if profile.low_mode_weight > 0 \
            and generator.random() < profile.low_mode_weight:
        lo, hi = profile.low_mode_range
        count, branch = int(generator.integers(lo, hi + 1)), "low mode"
    else:
        count, branch = int(np.clip(
            generator.lognormal(np.log(profile.flow_median),
                                profile.flow_sigma),
            1, profile.flow_cap)), "lognormal"
    if branches is not None:
        branches.add(branch)
    sync = float(np.exp(generator.normal(profile.sync_log_mean,
                                         profile.sync_log_sigma)))
    carryover = float(np.clip(
        np.exp(generator.normal(profile.carryover_log_mean,
                                profile.carryover_log_sigma)),
        0.1, 3.5))
    a, b = profile.contention_beta
    contention = float(generator.beta(a, b))
    return (duration, count, sync, carryover, contention,
            generator.normal(0.97, 0.04))


class TestScalarClamps:
    """``draw_burst`` clamps with comparisons; the values and types
    ``np.clip`` gave are part of the pinned bytes."""

    @pytest.mark.parametrize("service", list(SERVICE_PROFILES))
    def test_same_values_as_np_clip(self, service):
        profile = SERVICE_PROFILES[service]
        ours, oracle = rng(9), rng(9)
        for got in draws(profile, ours, 500):
            assert got == reference_draws(profile, oracle)
            assert [type(value) for value in got] \
                == [int, int, float, float, float, float]

    def test_clamps_bite_at_both_ends(self):
        wide = dataclasses.replace(SERVICE_PROFILES["indexer"],
                                   duration_geom_p=0.02, flow_sigma=3.0,
                                   carryover_log_sigma=3.0)
        rows = draws(wide, rng(1), 400)
        # A geometric draw is at least 1, so only the upper clamp can bite.
        assert wide.max_duration_ms in set(column(rows, DURATION).tolist())
        assert {1, wide.flow_cap} <= set(column(rows, FLOWS).tolist())
        assert {0.1, 3.5} <= set(column(rows, CARRYOVER).tolist())


class TestDrawOrder:
    """One burst takes six draws from the capture's one generator, in a
    fixed order; a reordered draw moves every later value of the stream."""

    @pytest.mark.parametrize("service", ["storage", "indexer"])
    def test_twin_generator(self, service):
        profile = SERVICE_PROFILES[service]
        ours, twin = rng(12), rng(12)
        branches = set()
        for _ in range(300):
            got = draws(profile, ours, 1)[0]
            assert got == reference_draws(profile, twin, branches)
            assert ours.bit_generator.state == twin.bit_generator.state
        # Storage draws from both flow-count branches; indexer has no low
        # mode, so it makes no random() call to choose one.
        assert branches == ({"low mode", "lognormal"}
                            if profile.low_mode_weight else {"lognormal"})
