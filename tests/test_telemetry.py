"""Tests for the in-sim telemetry layer: hook substrate, recorder,
engine integration, and parallel determinism."""

from __future__ import annotations

import json

import pytest

from repro import units
from repro.experiments.engine import run_experiments
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.netsim.packet import Packet, data_packet
from repro.netsim.queues import DropTailQueue
from repro.simcore.hooks import HookRegistry
from repro.telemetry import FLOW_CHANNELS, TelemetryRecorder

from tests.conftest import mini_dumbbell


class TestHookRegistry:
    def test_emit_reaches_subscribers_in_order(self):
        hooks = HookRegistry()
        seen = []
        hooks.subscribe("flow.open", lambda *a: seen.append(("a", a)))
        hooks.subscribe("flow.open", lambda *a: seen.append(("b", a)))
        hooks.emit("flow.open", 7, 100)
        assert seen == [("a", (7, 100)), ("b", (7, 100))]

    def test_emit_without_subscribers_is_noop(self):
        hooks = HookRegistry()
        hooks.emit("flow.open", 1)  # must not raise
        assert not hooks.active("flow.open")

    def test_unsubscribe_removes_and_prunes_channel(self):
        hooks = HookRegistry()
        fn = hooks.subscribe("flow.rto", lambda *a: None)
        assert hooks.active("flow.rto")
        hooks.unsubscribe("flow.rto", fn)
        assert not hooks.active("flow.rto")
        assert hooks.n_subscriptions == 0
        assert repr(hooks) == "HookRegistry(0 channels, 0 subscriptions)"

    def test_unsubscribe_unknown_channel_raises(self):
        with pytest.raises(KeyError):
            HookRegistry().unsubscribe("no.such.channel", lambda: None)

    def test_unsubscribe_absent_fn_raises(self):
        hooks = HookRegistry()
        hooks.subscribe("flow.close", lambda *a: None)
        with pytest.raises(ValueError):
            hooks.unsubscribe("flow.close", lambda *a: None)

    def test_emit_iterates_the_subscribers_current_when_it_began(self):
        hooks = HookRegistry()
        seen = []

        def once(*args):
            seen.append("once")
            hooks.unsubscribe("c", once)
            hooks.subscribe("c", late)

        def late(*args):
            seen.append("late")

        hooks.subscribe("c", once)
        hooks.subscribe("c", lambda *args: seen.append("after"))
        hooks.emit("c")
        assert seen == ["once", "after"]
        hooks.emit("c")
        assert seen == ["once", "after", "after", "late"]

    def test_simulator_carries_registry(self, sim):
        assert isinstance(sim.hooks, HookRegistry)


class TestObserverTaps:
    def test_queue_watcher_sees_all_three_events(self):
        queue = DropTailQueue(capacity_packets=1)
        events = []
        queue.add_watcher(
            lambda event, q, pkt: events.append((event, q.len_packets)))
        queue.offer(data_packet(0, 0, 1, 0, 100))
        queue.offer(data_packet(0, 0, 1, 100, 100))  # over capacity
        queue.pop()
        # Enqueue watchers see the depth the packet produced; dequeue
        # watchers see the depth after removal.
        assert events == [("enqueue", 1), ("drop", 1), ("dequeue", 0)]


class TestRecorderWiring:
    def test_attach_detach_leaves_no_residue(self, sim):
        net = mini_dumbbell(sim, n_senders=2)
        recorder = TelemetryRecorder(sim)
        recorder.attach()
        recorder.attach_host(net.receiver)
        recorder.attach_queue(net.bottleneck_queue)
        assert sim.hooks.n_subscriptions == len(FLOW_CHANNELS)
        assert all(sim.hooks.active(c) for c in FLOW_CHANNELS)
        recorder.detach()
        assert sim.hooks.n_subscriptions == 0
        # Traffic after detach must not be recorded.
        net.receiver.nic.receive(data_packet(0, 0, net.receiver.address,
                                             0, 1000))
        net.bottleneck_queue.offer(data_packet(0, 0, 1, 0, 1000))
        capture = recorder.export()
        assert capture.hosts["receiver"].ingress_bytes.sum() == 0
        assert capture.queues["torB->receiver"].peak_packets.sum() == 0

    def test_double_attach_rejected(self, sim):
        recorder = TelemetryRecorder(sim)
        recorder.attach()
        with pytest.raises(RuntimeError):
            recorder.attach()

    def test_duplicate_host_rejected(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        recorder = TelemetryRecorder(sim)
        recorder.attach_host(net.receiver)
        with pytest.raises(ValueError):
            recorder.attach_host(net.receiver)

    def test_interval_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            TelemetryRecorder(sim, interval_ns=0)


@pytest.fixture(scope="module")
def incast_result():
    """One small telemetry-enabled incast run shared by the integration
    assertions below."""
    cfg = IncastSimConfig(
        n_flows=30,
        burst_duration_ns=units.msec(2.0),
        n_bursts=3,
        inter_burst_gap_ns=units.msec(2.0),
        seed=7,
        telemetry=True,
    )
    return run_incast_sim(cfg)


class TestIncastIntegration:
    """Interval series must sum to the connection-level aggregates the
    simulation already tracks — the recorder adds a lens, not a new
    accounting."""

    def test_receiver_ingress_sums_to_nic_counter(self, incast_result):
        series = incast_result.telemetry.hosts["receiver"]
        nic = incast_result.network.receiver.nic
        assert int(series.ingress_bytes.sum()) == nic.bytes_received

    def test_receiver_egress_sums_to_nic_counter(self, incast_result):
        series = incast_result.telemetry.hosts["receiver"]
        nic = incast_result.network.receiver.nic
        assert int(series.egress_bytes.sum()) == nic.bytes_sent

    def test_marked_bytes_sum_to_bottleneck_stats(self, incast_result):
        # Every packet CE-marked at the bottleneck reaches the receiver
        # (marking happens at enqueue success and the final hop never
        # drops), so the receiver-side series accounts for all of them.
        series = incast_result.telemetry.hosts["receiver"]
        stats = incast_result.network.bottleneck_queue.stats
        assert int(series.marked_bytes.sum()) == stats.marked_bytes

    def test_queue_peaks_bracket_burst_watermarks(self, incast_result):
        capture = incast_result.telemetry
        peaks = capture.queues["torB->receiver"].peak_packets
        capacity = incast_result.config.dumbbell.queue_capacity_packets
        assert int(peaks.max()) <= capacity
        burst_peak = max(r.peak_queue_packets
                         for r in incast_result.burst_results)
        assert int(peaks.max()) >= burst_peak

    def test_flow_lifecycle_counts(self, incast_result):
        counts = incast_result.telemetry.event_counts
        cfg = incast_result.config
        assert counts["open"] == cfg.n_flows
        assert counts["first_byte"] == cfg.n_flows
        # Persistent connections drain their demand once per burst.
        assert counts["close"] == cfg.n_flows * cfg.n_bursts
        assert incast_result.telemetry.events_dropped == 0

    def test_flow_count_bounded_by_population(self, incast_result):
        series = incast_result.telemetry.hosts["receiver"]
        assert 0 < int(series.flow_count.max()) <= incast_result.config.n_flows

    def test_alpha_events_carry_dctcp_alpha(self, incast_result):
        alphas = [e.value for e in incast_result.telemetry.events
                  if e.kind == "alpha"]
        assert alphas, "DCTCP under incast must update alpha"
        assert all(0.0 <= a <= 1.0 for a in alphas)

    def test_capture_is_json_ready(self, incast_result):
        json.dumps(incast_result.telemetry.to_dict())

    def test_telemetry_off_yields_none(self):
        cfg = IncastSimConfig(n_flows=4, burst_duration_ns=units.msec(2.0),
                              n_bursts=3, seed=7)
        assert run_incast_sim(cfg).telemetry is None


class TestEngineTelemetry:
    SCALE = 0.05
    SEED = 3

    def test_params_injection_changes_cache_key(self):
        from repro.experiments import fig5
        import dataclasses
        unit = fig5.work_units(self.SCALE, self.SEED)[0]
        tele = dataclasses.replace(
            unit, params={**unit.params,
                          "telemetry": {"interval_ns": 1_000_000}})
        assert tele.cache_key() != unit.cache_key()

    def test_telemetry_from_params_passthrough(self):
        """A dumbbell point runs telemetry-off unless the engine injected
        its ``telemetry`` param, and then at the injected interval."""
        import dataclasses
        from repro.experiments.sweep import point_unit, run_unit
        point = point_unit("t", "p", "dumbbell_incast",
                           {"n_flows": 4, "n_bursts": 1}, self.SCALE,
                           self.SEED)
        plain = run_unit(point)
        assert not plain.config.telemetry and plain.telemetry is None
        enabled = run_unit(dataclasses.replace(
            point, params={**point.params,
                           "telemetry": {"interval_ns": 250_000}}))
        assert enabled.config.telemetry
        assert enabled.config.telemetry_interval_ns == 250_000
        assert enabled.telemetry is not None

    def test_jobs4_telemetry_matches_jobs1(self):
        """--telemetry is deterministic across worker fan-out: the full
        capture (series and event log) is byte-identical."""
        _, serial = run_experiments(["fig6"], scale=self.SCALE,
                                    seed=self.SEED, jobs=1, telemetry=True)
        _, parallel = run_experiments(["fig6"], scale=self.SCALE,
                                      seed=self.SEED, jobs=4,
                                      telemetry=True)
        assert serial.telemetry, "expected captures from fig6 units"
        assert json.dumps(serial.telemetry, sort_keys=True) == \
            json.dumps(parallel.telemetry, sort_keys=True)
        assert "telemetry" in serial.to_dict()

    def test_report_omits_section_when_off(self):
        _, report = run_experiments(["fig1"], scale=self.SCALE,
                                    seed=self.SEED, jobs=1)
        assert report.telemetry == {}
        assert "telemetry" not in report.to_dict()


class TestTelemetryViewCli:
    @pytest.fixture
    def report_path(self, tmp_path, incast_result):
        document = {"telemetry": {
            "unit/one": incast_result.telemetry.to_dict()}}
        path = tmp_path / "run_report.json"
        path.write_text(json.dumps(document))
        return path

    def test_renders_timeline(self, report_path, capsys):
        from repro.tools.telemetry_view import main
        assert main([str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "unit/one" in out
        assert "ingress_bytes" in out
        assert "torB->receiver" in out
        assert "flow events:" in out

    def test_unknown_unit_rejected(self, report_path):
        from repro.tools.telemetry_view import main
        with pytest.raises(SystemExit):
            main([str(report_path), "--unit", "nope"])

    def test_missing_telemetry_section_rejected(self, tmp_path):
        from repro.tools.telemetry_view import main
        path = tmp_path / "run_report.json"
        path.write_text(json.dumps({"n_units": 3}))
        with pytest.raises(SystemExit):
            main([str(path)])

    def test_dump_csv_and_json(self, report_path, tmp_path, capsys):
        from repro.tools.telemetry_view import main
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        assert main([str(report_path), "--dump-csv", str(csv_path),
                     "--dump-json", str(json_path)]) == 0
        header, first, *_ = csv_path.read_text().splitlines()
        assert header == "unit,host,signal,interval,value"
        assert first.startswith("unit/one,")
        assert "unit/one" in json.loads(json_path.read_text())
