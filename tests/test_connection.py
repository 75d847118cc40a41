"""End-to-end TCP tests over the dumbbell: reliability, recovery, ECN."""

import pytest

from repro import units
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.cca.reno import Reno
from repro.tcp.config import TcpConfig
from repro.tcp.connection import open_connection
from tests.conftest import mini_dumbbell, open_dctcp


class TestDelivery:
    @pytest.mark.parametrize("size", [1, 100, 1460, 1461, 100_000])
    def test_delivers_exactly(self, sim, size):
        net = mini_dumbbell(sim, n_senders=1)
        sender, receiver = open_dctcp(sim, net)
        sender.send(size)
        sim.run(until_ns=units.sec(2))
        assert receiver.delivered_bytes == size
        assert sender.done

    def test_multiple_sends_accumulate(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        sender, receiver = open_dctcp(sim, net)
        sender.send(10_000)
        sim.run(until_ns=units.msec(1))
        sender.send(10_000)
        sim.run(until_ns=units.sec(1))
        assert receiver.delivered_bytes == 20_000

    def test_concurrent_flows_all_complete(self, sim):
        net = mini_dumbbell(sim, n_senders=8)
        conns = [open_dctcp(sim, net, i) for i in range(8)]
        for sender, _ in conns:
            sender.send(50_000)
        sim.run(until_ns=units.sec(2))
        assert all(r.delivered_bytes == 50_000 for _, r in conns)

    def test_send_rejects_nonpositive(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        sender, _ = open_dctcp(sim, net)
        with pytest.raises(ValueError):
            sender.send(0)

    def test_rtt_estimate_close_to_path_rtt(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        sender, _ = open_dctcp(sim, net)
        sender.send(200_000)
        sim.run(until_ns=units.sec(1))
        assert sender.rtt.samples > 0
        # Base RTT is 30 us; queueing can add some, not orders of magnitude.
        assert units.usec(25) < sender.rtt.min_rtt_ns < units.usec(120)


class TestEcn:
    def test_marks_reach_sender_and_raise_alpha(self, sim):
        # Threshold 0 marks every ECT packet: every ACK must carry ECE and
        # alpha must rise toward 1 (a single flow cannot otherwise congest
        # the dumbbell, whose host links match the bottleneck rate).
        net = mini_dumbbell(sim, n_senders=1, ecn_threshold_packets=0)
        cfg = TcpConfig()
        cca = Dctcp(cfg, initial_alpha=0.0)
        sender, receiver = open_connection(sim, cfg, cca, net.senders[0],
                                           net.receiver)
        sender.send(500_000)
        sim.run(until_ns=units.sec(1))
        assert receiver.delivered_bytes == 500_000
        assert sender.stats.ece_acks_received > 0
        assert cca.alpha > 0.5

    def test_no_marks_below_threshold(self, sim):
        net = mini_dumbbell(sim, n_senders=1)  # threshold 65 packets
        cfg = TcpConfig(init_cwnd_segments=2, max_cwnd_bytes=4 * 1460)
        sender, receiver = open_connection(sim, cfg, Dctcp(cfg),
                                           net.senders[0], net.receiver)
        sender.send(100_000)
        sim.run(until_ns=units.sec(1))
        assert receiver.delivered_bytes == 100_000
        assert sender.stats.ece_acks_received == 0


class TestFastRetransmit:
    def test_recovers_from_tail_drop(self, sim):
        # Four concurrent flows into a 3-packet bottleneck queue force
        # drops during slow start; flows must recover via dupACKs without
        # waiting for the 200 ms RTO.
        net = mini_dumbbell(sim, n_senders=4, queue_capacity_packets=3,
                            ecn_threshold_packets=None)
        cfg = TcpConfig(ecn_enabled=False)
        conns = [open_connection(sim, cfg, Reno(cfg), host, net.receiver)
                 for host in net.senders]
        for sender, _ in conns:
            sender.send(300_000)
        sim.run(until_ns=units.sec(5))
        assert all(r.delivered_bytes == 300_000 for _, r in conns)
        assert net.bottleneck_queue.stats.dropped_packets > 0
        assert sum(s.stats.fast_retransmits for s, _ in conns) > 0
        assert sum(s.stats.retransmitted_packets for s, _ in conns) > 0

    def test_dupacks_below_threshold_do_not_retransmit(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        sender, receiver = open_dctcp(sim, net)
        sender.send(20_000)
        sim.run(until_ns=units.sec(1))
        assert sender.stats.fast_retransmits == 0


class TestRto:
    def test_rto_recovers_when_dupacks_unavailable(self, sim):
        # dupack_threshold too high to trigger fast retransmit: flows that
        # lose packets must fall back to a timeout and still deliver.
        net = mini_dumbbell(sim, n_senders=4, queue_capacity_packets=2,
                            ecn_threshold_packets=None)
        cfg = TcpConfig(ecn_enabled=False, dupack_threshold=1000)
        conns = [open_connection(sim, cfg, Reno(cfg), host, net.receiver)
                 for host in net.senders]
        for sender, _ in conns:
            sender.send(30_000)
        sim.run(until_ns=units.sec(5))
        assert all(r.delivered_bytes == 30_000 for _, r in conns)
        assert sum(s.stats.rto_events for s, _ in conns) > 0

    def test_rto_backoff_is_exponential(self, sim):
        """With the network black-holed (no route installed on purpose is
        impossible here, so use a zero-capacity-equivalent queue), repeated
        RTOs space out exponentially."""
        net = mini_dumbbell(sim, n_senders=1, queue_capacity_packets=1,
                            ecn_threshold_packets=None)
        # Break the ACK path by sending to an unregistered flow id: instead,
        # verify backoff arithmetic directly.
        sender, _ = open_dctcp(sim, net)
        base = sender.current_rto_ns()
        sender._rto_backoff = 4
        assert sender.current_rto_ns() == min(4 * base,
                                              sender.config.max_rto_ns)

    def test_timer_decided_once_per_ack_not_churned(self, sim):
        """Stop-and-wait (a 1-MSS advertised window): every ACK empties the
        pipe and the next segment leaves in the same event. The timer is
        decided once, after the window is refilled — a lazy deadline move,
        not a cancel plus a fresh heap entry per ACK — and it still carries
        the deadline the last ACK set, and is disarmed at the end."""
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig(receiver_window_bytes=1460)
        sender, receiver = open_connection(sim, cfg, Dctcp(cfg),
                                           net.senders[0], net.receiver)
        pushes = []
        schedule = sim.schedule
        sim.schedule = lambda *args: pushes.append(args) or schedule(*args)
        sender.send(50 * 1460)
        sim.run(until_ns=units.usec(400))  # mid-transfer
        assert 0 < sender.snd_una < 50 * 1460 and sender.inflight_bytes > 0
        assert sender._timer.armed
        assert sender._timer.expiry_ns > sim.now + sender.current_rto_ns() \
            - units.usec(100)
        sim.run(until_ns=units.msec(100))
        assert receiver.delivered_bytes == 50 * 1460
        assert sender.stats.acks_received == 50
        assert not sender._timer.armed and sim.pending_events == 0
        assert len(pushes) == 1  # the first arm; was one per ACK


class TestIdleRestart:
    def test_cwnd_reset_after_idle_when_enabled(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig(cwnd_restart_after_idle=True)
        cca = Dctcp(cfg)
        sender, receiver = open_connection(sim, cfg, cca, net.senders[0],
                                           net.receiver)
        sender.send(500_000)
        sim.run(until_ns=units.msec(10))
        assert sender.done
        grown = cca.cwnd_bytes
        assert grown > cfg.init_cwnd_bytes
        # Idle for longer than the 200 ms RTO, then send again.
        sim.run(until_ns=units.msec(500))
        sender.send(1460)
        assert cca.cwnd_bytes == cfg.init_cwnd_bytes

    def test_cwnd_persists_by_default(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig()
        cca = Dctcp(cfg)
        sender, receiver = open_connection(sim, cfg, cca, net.senders[0],
                                           net.receiver)
        sender.send(500_000)
        sim.run(until_ns=units.msec(10))
        grown = cca.cwnd_bytes
        sim.run(until_ns=units.msec(500))
        sender.send(1460)
        assert cca.cwnd_bytes == grown


class TestSenderState:
    def test_inflight_and_pending_accounting(self, sim):
        net = mini_dumbbell(sim, n_senders=1)
        cfg = TcpConfig(init_cwnd_segments=2)
        sender, _ = open_connection(sim, cfg, Dctcp(cfg), net.senders[0],
                                    net.receiver)
        sender.send(10 * 1460)
        # Two segments on the wire, the rest pending.
        assert sender.inflight_bytes == 2 * 1460
        assert sender.pending_bytes == 8 * 1460
        assert sender.active
        sim.run(until_ns=units.sec(1))
        assert sender.inflight_bytes == 0
        assert sender.done

    def test_flow_ids_unique(self, sim):
        net = mini_dumbbell(sim, n_senders=2)
        s1, _ = open_dctcp(sim, net, 0)
        s2, _ = open_dctcp(sim, net, 1)
        assert s1.flow_id != s2.flow_id
