"""Telemetry rides the fast path: observing a queue's per-interval peaks
must not change how the queue is simulated, and must read the same
numbers whichever drain implementation serves it."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro import units
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.netsim import switch as switch_module
from repro.netsim.nic import HostNIC
from repro.netsim.packet import Packet, data_packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.topology import DumbbellConfig
from repro.simcore.kernel import Simulator
from repro.telemetry import FlowEvent, TelemetryRecorder

from tests.conftest import mini_dumbbell


def all_ports(net):
    return net.tor_senders.ports + net.tor_receiver.ports


class TestCaptureIdentity:
    @pytest.mark.parametrize("n_flows", [100, 1000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_capture_equal_on_fast_path_and_legacy_pump(self, monkeypatch,
                                                        n_flows, seed):
        cfg = IncastSimConfig(n_flows=n_flows, n_bursts=1, seed=seed,
                              telemetry=True)
        fast = run_incast_sim(cfg)
        # A telemetered run keeps every port on the closed-form drains.
        assert all(port._composed for port in all_ports(fast.network))
        monkeypatch.setattr(switch_module, "BATCHED_EGRESS_ENABLED", False)
        legacy = run_incast_sim(cfg)
        assert not any(port._composed for port in all_ports(legacy.network))
        assert (fast.telemetry.to_dict(max_events=10**9)
                == legacy.telemetry.to_dict(max_events=10**9))
        assert fast.burst_results == legacy.burst_results

    def test_telemetry_leaves_burst_results_unchanged(self):
        cfg = IncastSimConfig(n_flows=100, n_bursts=1, seed=0)
        plain = run_incast_sim(cfg)
        observed = run_incast_sim(dataclasses.replace(cfg, telemetry=True))
        assert observed.burst_results == plain.burst_results
        assert (observed.network.sim.events_processed
                == plain.network.sim.events_processed)


class TestLegacyPortsStillRecordPeaks:
    """A port that is legitimately on the per-packet pump books its peaks
    in ``DropTailQueue.offer``."""

    SMALL = dict(n_flows=30, burst_duration_ns=units.msec(2.0), n_bursts=2,
                 inter_burst_gap_ns=units.msec(1.0), seed=5, telemetry=True)

    def check(self, result, on_legacy_pump: bool) -> None:
        port = result.network.tor_receiver.ports[-1]
        assert port.queue is result.network.bottleneck_queue
        if on_legacy_pump:
            assert port._pumped and not port._composed
        peaks = result.telemetry.queues["torB->receiver"].peak_packets
        # The workload resets the watermark at each burst start and every
        # enqueue falls inside a burst, so the two views must agree.
        assert int(peaks.max()) == max(b.peak_queue_packets
                                       for b in result.burst_results) > 0

    def test_queue_with_a_buffer_pool(self):
        self.check(run_incast_sim(IncastSimConfig(
            dumbbell=DumbbellConfig(shared_buffer_bytes=2_000_000),
            **self.SMALL)), on_legacy_pump=True)

    @pytest.mark.parametrize("scheme", ["pulser", "detect"])
    def test_scheme_with_telemetry(self, scheme):
        # pulser's degree estimator is a watcher on the bottleneck queue.
        self.check(run_incast_sim(IncastSimConfig(scheme=scheme,
                                                  **self.SMALL)),
                   on_legacy_pump=scheme == "pulser")


class TestAttachDetach:
    def send_one(self, net, seq: int) -> None:
        sender = net.senders[0]
        sender.nic.send(data_packet(0, sender.address, net.receiver.address,
                                    seq, 1000))

    def test_attach_after_first_traffic(self):
        sim = Simulator()
        net = mini_dumbbell(sim, n_senders=1)
        self.send_one(net, 0)
        sim.run(until_ns=units.msec(2.0))
        assert net.bottleneck_queue.stats.enqueued_packets == 1
        recorder = TelemetryRecorder(sim)
        recorder.attach_queue(net.bottleneck_queue)  # used to raise
        self.send_one(net, 1000)
        sim.run(until_ns=units.msec(4.0))
        peaks = recorder.export().queues["torB->receiver"].peak_packets
        # Only the packet sent after attaching is recorded (interval 2).
        assert [int(v) for v in peaks] == [0, 0, 1]

    def test_detach_leaves_no_residue_and_stops_recording(self):
        sim = Simulator()
        net = mini_dumbbell(sim, n_senders=1)
        queue, nic = net.bottleneck_queue, net.receiver.nic
        recorder = TelemetryRecorder(sim)
        recorder.attach()
        recorder.attach_host(net.receiver)
        recorder.attach_queue(queue)
        self.send_one(net, 0)
        sim.run(until_ns=units.msec(1.0))
        recorder.detach()
        assert sim.hooks.n_subscriptions == 0
        assert not nic._ingress_hooks and not nic._egress_hooks
        assert not nic._ingress_observed and not nic._egress_observed
        assert nic.interval_counts() == {}
        assert not queue._watchers and not queue._peak_interval_ns
        assert queue._peaks == {} and queue._peak_clock is None
        before = recorder.export().to_dict()
        self.send_one(net, 1000)
        sim.run(until_ns=units.msec(2.0))
        assert queue.stats.enqueued_packets == 2
        assert queue.interval_peaks() == {}
        assert recorder.export().to_dict() == before
        assert before["queues"]["torB->receiver"]["peak_packets"] == [1]
        # The queue can be observed again afterwards.
        TelemetryRecorder(sim).attach_queue(queue)

    def test_one_interval_at_a_time(self):
        sim = Simulator()
        queue = mini_dumbbell(sim, n_senders=1).bottleneck_queue
        queue.start_interval_peaks(sim, units.msec(1.0))
        with pytest.raises(RuntimeError):
            queue.start_interval_peaks(sim, units.usec(1.0))
        with pytest.raises(ValueError):
            DropTailQueue().start_interval_peaks(sim, 0)


class TestRetention:
    """Composed ports and the virtual NIC fold their bookkeeping as they
    go: what they hold is proportional to the packets in flight, not to
    the packets ever sent, and never a ``Packet``."""

    @staticmethod
    def backlogs(net) -> list:
        held = []
        for port in all_ports(net):
            held += [port._varrivals, port._vdrains, port.queue._fifo]
        for host in net.senders + [net.receiver]:
            held += [host.nic._vrecords, host.nic._egress_fifo]
        return held

    def test_pending_records_do_not_grow_with_bursts(self):
        pending = {}
        for n_bursts in (1, 3):
            net = run_incast_sim(IncastSimConfig(
                n_flows=100, n_bursts=n_bursts, seed=0)).network
            held = self.backlogs(net)
            pending[n_bursts] = sum(len(backlog) for backlog in held)
            for backlog in held:
                for record in backlog:
                    fields = record if isinstance(record, tuple) \
                        else (record,)
                    assert not any(isinstance(f, Packet) for f in fields)
        # At the parent commit: 38,837 after one burst, 116,203 after
        # three. Now a per-port fold slack, whatever the run length.
        assert pending[1] < 10_000
        assert pending[3] < 1.5 * pending[1] + 1_000


def digests(capture) -> tuple[str, str]:
    """sha256 of the capture's full JSON form and of its event rows."""
    document = json.dumps(capture.to_dict(max_events=10**9), sort_keys=True)
    rows = repr([dataclasses.astuple(e) for e in capture.events])
    return (hashlib.sha256(document.encode()).hexdigest(),
            hashlib.sha256(rows.encode()).hexdigest())


# Recorded with the row-list capture (commit b8af933), before the
# lifecycle log went columnar and host counters moved into the NIC:
# config, to_dict sha256, event-row sha256, events.
PINNED = {
    "fixture8": (
        dict(n_flows=8, burst_duration_ns=units.msec(2.0), n_bursts=2,
             inter_burst_gap_ns=units.msec(1.0), seed=3),
        "59c5517a4f3b69b4aebd4670e5850449b240771e4101a7c57151942ba5639dc3",
        "8ea835e382b828f1eb4f031498c5537616dddd2d9d35879ff6aad2e96c717c2f",
        376),
    "incast_telemetry_seed0": (
        dict(n_flows=100, n_bursts=1, seed=0),
        "469456ce9b600b2649c9762ad4221e83d6f69f0776fdb1339a3efdc307a12624",
        "d145d45f7dedad88022e0818f21bfa7ccc5d620b5e736465387974053a31d2ce",
        11_652),
    "incast_telemetry_seed3": (
        dict(n_flows=100, n_bursts=1, seed=3),
        "95e2e7fd969f48f50b3de804c063e2633805e1d794e707f14b43e237969ce08a",
        "6d99193d09fd213fd6810916aa874182c8d3cca815b458d95064cf01109bd8fb",
        11_639),
    "lossy1000": (
        dict(n_flows=1000, n_bursts=1, seed=0),
        "20a8ac5ba343970a0a9a347b6bfdeda06af5ef15008c958d4292507df10a5647",
        "04e83c6e2eb30418f2a82591f4a43169bd1bdcae4693ec7c2ac7f04f0cdae3a2",
        14_846),
}


class TestCaptureCompatibility:
    """Captures land in run reports and, via payloads, in result caches:
    what they say must not move. Their pickle layout may — the version
    bump retires older cache entries (``test_engine_determinism``)."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_values_pinned_at_parent(self, name):
        config, document_sha, rows_sha, n_events = PINNED[name]
        capture = run_incast_sim(IncastSimConfig(telemetry=True,
                                                 **config)).telemetry
        assert len(capture.events) == n_events
        assert digests(capture) == (document_sha, rows_sha)
        assert [f.name for f in dataclasses.fields(capture.events[0])] == \
            ["time_ns", "kind", "flow_id", "host", "value"]
        assert digests(pickle.loads(pickle.dumps(capture))) == \
            (document_sha, rows_sha)


class TestCaptureCost:
    def test_a_run_and_its_report_build_only_the_reported_rows(
            self, monkeypatch):
        """Export, renumbering and ``to_dict()`` build no ``FlowEvent``
        beyond the ``max_events`` rows reported (the row-list capture
        built 2 x 11,652 here: one row per event in export, another in
        renumbering), and no host is observed through a NIC hook."""
        built = []
        init = FlowEvent.__init__
        monkeypatch.setattr(FlowEvent, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        hooks = []
        for attr in ("add_ingress_hook", "add_egress_hook"):
            add = getattr(HostNIC, attr)
            monkeypatch.setattr(HostNIC, attr, lambda self, hook, add=add:
                                hooks.append(hook) or add(self, hook))
        config, _, rows_sha, _ = PINNED["incast_telemetry_seed0"]
        capture = run_incast_sim(IncastSimConfig(telemetry=True,
                                                 **config)).telemetry
        report = capture.to_dict()
        assert len(report["events"]) == 200 and report["n_events"] == 11_652
        assert len(built) <= 200
        assert hooks == []
        rows = repr([dataclasses.astuple(e) for e in capture.events])
        assert hashlib.sha256(rows.encode()).hexdigest() == rows_sha
