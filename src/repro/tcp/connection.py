"""TCP sender and receiver endpoints.

The sender implements reliability and window clocking: segmentation, the
congestion-window send gate (with a 1-MSS floor), triple-dupACK fast
retransmit, NewReno partial-ACK retransmission during recovery, go-back-N
retransmission timeouts with exponential backoff, Karn-sampled RTT
estimation, and optional pacing for sub-MSS windows (Swift-like CCAs).

The receiver implements cumulative ACKs with out-of-order segment buffering
and the DCTCP ECN-echo rule: with delayed ACKs disabled (the paper's
configuration) every data packet is acknowledged immediately and the ACK's
ECE bit equals that packet's CE mark; with delayed ACKs enabled, the DCTCP
receiver state machine sends an immediate ACK whenever the CE state changes
so the sender's marked-byte accounting stays exact.

Connections are persistent: there is no handshake or teardown (the paper's
workloads reuse connections across bursts, which is what makes CWND state
carry over and diverge at burst boundaries — Section 4.3).

Both endpoints emit flow lifecycle events into ``sim.hooks`` (see
:mod:`repro.simcore.hooks`) on the channels ``flow.open``,
``flow.first_byte``, ``flow.alpha``, ``flow.rto`` and ``flow.close`` —
the per-flow signals the telemetry layer (:mod:`repro.telemetry`) records.
Emission is observer-gated: with no subscribers the cost is one dict
lookup, and behaviour is bit-identical to an uninstrumented stack.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.host import Host
from repro.netsim.packet import ECN, Packet
from repro.simcore.kernel import Simulator, Timer
from repro.tcp.cca.base import CongestionControl
from repro.tcp.config import TcpConfig
from repro.tcp.rtt import RttEstimator
from repro.tcp.sack import SackScoreboard

DeliveryHook = Callable[[int], None]
"""Called with the new contiguous delivered byte count after it advances."""

_MAX_RTO_BACKOFF = 64

_CE = ECN.CE


class SenderStats:
    """Counters a sender accumulates over its lifetime."""

    __slots__ = ("data_packets_sent", "bytes_sent", "retransmitted_packets",
                 "retransmitted_bytes", "fast_retransmits", "rto_events",
                 "acks_received", "ece_acks_received")

    def __init__(self) -> None:
        self.data_packets_sent = 0
        self.bytes_sent = 0
        self.retransmitted_packets = 0
        self.retransmitted_bytes = 0
        self.fast_retransmits = 0
        self.rto_events = 0
        self.acks_received = 0
        self.ece_acks_received = 0


class TcpSender:
    """The sending half of a TCP connection.

    Applications add demand with :meth:`send`; the sender transmits as the
    congestion window allows and guarantees eventual delivery of every byte
    below ``demand_end``.

    Attributes:
        flow_id: Connection identifier (shared with the receiver half).
        cca: The congestion-control algorithm owning the window.
        snd_una: Lowest unacknowledged byte.
        snd_nxt: Next byte to send.
    """

    def __init__(self, sim: Simulator, config: TcpConfig,
                 cca: CongestionControl, host: Host, dst_address: int,
                 flow_id: int):
        self._sim = sim
        # Hoisted observer-gate: the hook registry is consulted on every
        # ACK, so skip the sim attribute chain in the per-packet path;
        # its channel map (never rebound) is non-empty iff anyone listens.
        self._hook_registry = sim.hooks
        self._hook_channels = sim.hooks._channels
        self.config = config
        self.cca = cca
        # Decided once per connection, not per ACK: whether the CCA paces
        # or consumes RTT samples at all (the base class does neither, so
        # a CCA that does not override them cannot).
        cca_type = type(cca)
        self._paces = (cca_type.pacing_interval_ns
                       is not CongestionControl.pacing_interval_ns)
        self._samples_rtt = (cca_type.on_rtt_sample
                             is not CongestionControl.on_rtt_sample)
        self._host = host
        self._nic = host.nic
        self._dst = dst_address
        self.flow_id = flow_id
        self._data_ecn = ECN.ECT if config.ecn_enabled else ECN.NOT_ECT
        host.register_flow(flow_id, self)

        self.snd_una = 0
        self.snd_nxt = 0
        self._demand_end = 0
        self._highest_sent = 0
        self._dupacks = 0
        self._in_recovery = False
        self._recovery_point = 0
        self._rto_backoff = 1
        self._last_send_ns: Optional[int] = None
        # One RTT probe at a time (Karn's algorithm): (end_seq, send_time).
        self._rtt_probe: Optional[tuple[int, int]] = None
        self._paced_event = None

        self.sack = SackScoreboard() if config.sack_enabled else None
        # Last receiver-advertised window; None until an ACK reports one.
        self.peer_rwnd_bytes: Optional[int] = None
        # Highest sequence hole-filled during the current SACK recovery,
        # so each hole is retransmitted once per recovery episode.
        self._sack_rtx_above = 0

        self.rtt = RttEstimator(config.initial_rto_ns, config.min_rto_ns,
                                config.max_rto_ns)
        # current_rto_ns(), kept current where its inputs change (an RTT
        # sample, a backoff step) rather than derived on every ACK.
        self._rto_ns = self.current_rto_ns()
        self._timer = Timer(sim, self._on_rto)
        self.stats = SenderStats()

        # Optional FEC encoder (see repro.tcp.fec); attached by a
        # mitigation scheme, None on the default path.
        self.fec = None
        # Pulser-style explicit incast notification: resolved once here so
        # the per-ACK dispatch is a cached attribute, not a getattr.
        self._incast_signal = getattr(cca, "on_incast_signal", None)

        # Telemetry: locate the innermost CCA carrying DCTCP's alpha state
        # (unwrapping guardrail-style decorators) so window-completion
        # alpha updates can be emitted as flow.alpha events.
        inner = cca
        while getattr(inner, "inner", None) is not None:
            inner = inner.inner  # type: ignore[union-attr]
        self._alpha_cca = (inner if hasattr(inner, "alpha")
                           and hasattr(inner, "windows_completed") else None)
        self._alpha_windows_seen = getattr(inner, "windows_completed", 0)
        sim.hooks.emit("flow.open", flow_id, host.address, dst_address,
                       sim.now)

    # --- queries ---------------------------------------------------------

    @property
    def inflight_bytes(self) -> int:
        """Bytes sent but not yet cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    @property
    def pipe_bytes(self) -> int:
        """SACK-aware estimate of bytes actually in the network: bytes the
        receiver already holds do not occupy the pipe."""
        sacked = self.sack.sacked_bytes() if self.sack is not None else 0
        return max(0, self.inflight_bytes - sacked)

    @property
    def demand_end(self) -> int:
        """Total bytes the application has asked to deliver."""
        return self._demand_end

    @property
    def pending_bytes(self) -> int:
        """Demand not yet transmitted for the first time."""
        return self._demand_end - self.snd_nxt

    @property
    def done(self) -> bool:
        """Whether every demanded byte has been acknowledged."""
        return self.snd_una >= self._demand_end

    @property
    def active(self) -> bool:
        """Whether the flow has unacknowledged or unsent demand."""
        return not self.done

    def current_rto_ns(self) -> int:
        """The RTO the timer would be armed with right now."""
        return min(self.rtt.rto_ns() * self._rto_backoff,
                   self.config.max_rto_ns)

    # --- application API ---------------------------------------------------

    def send(self, nbytes: int) -> None:
        """Add ``nbytes`` of demand to the connection."""
        if nbytes <= 0:
            raise ValueError(f"send size must be positive, got {nbytes}")
        self._maybe_restart_after_idle()
        self._demand_end += nbytes
        self._try_send()

    def _maybe_restart_after_idle(self) -> None:
        if not self.config.cwnd_restart_after_idle:
            return
        if self._last_send_ns is None or self.inflight_bytes > 0:
            return
        idle_ns = self._sim.now - self._last_send_ns
        threshold = (self.config.idle_restart_threshold_ns
                     if self.config.idle_restart_threshold_ns is not None
                     else self.current_rto_ns())
        if idle_ns > threshold:
            self.cca.on_restart_after_idle()

    # --- transmission -------------------------------------------------------

    def _send_window_bytes(self) -> float:
        """The window the sender enforces: congestion window capped by the
        receiver-advertised window (floored at one MSS so a tiny advertised
        window degrades to stop-and-wait rather than deadlock)."""
        cwnd = self.cca.effective_cwnd_bytes()
        if self.peer_rwnd_bytes is not None:
            cwnd = min(cwnd, float(max(self.peer_rwnd_bytes,
                                       self.config.mss_bytes)))
        return cwnd

    def _try_send(self) -> None:
        if self._paces:
            pacing = self.cca.pacing_interval_ns(self.rtt.srtt_ns)
            if pacing is not None:
                self._try_send_paced(pacing)
                return
        # Window-filling loop with the invariant quantities hoisted out:
        # nothing inside _emit_segment can re-enter this sender (packet
        # hand-off to the NIC only schedules events), so snd_una, the SACK
        # scoreboard and the demand edge are loop constants and the pipe
        # estimate can be advanced incrementally.
        demand_end = self._demand_end
        nxt = self.snd_nxt
        if nxt >= demand_end:
            return
        mss = self.config.mss_bytes
        # _send_window_bytes(), inlined (the window is pure state).
        cwnd = self.cca.effective_cwnd_bytes()
        rwnd = self.peer_rwnd_bytes
        if rwnd is not None:
            cwnd = min(cwnd, float(max(rwnd, mss)))
        sacked = self.sack.sacked_bytes() if self.sack is not None else 0
        pipe = nxt - self.snd_una - sacked
        while nxt < demand_end and (pipe if pipe > 0 else 0) < cwnd:
            payload = mss if demand_end - nxt > mss else demand_end - nxt
            self._emit_segment(nxt, payload, is_retransmit=False)
            nxt += payload
            pipe += payload
            self.snd_nxt = nxt

    def _try_send_paced(self, interval_ns: int) -> None:
        """Pacing mode: one segment outstanding at a time, spaced by the
        CCA's pacing interval (used when cwnd < 1 MSS)."""
        if self._paced_event is not None:
            return
        if self.snd_nxt >= self._demand_end or self.inflight_bytes > 0:
            return
        elapsed = (self._sim.now - self._last_send_ns
                   if self._last_send_ns is not None else interval_ns)
        delay = max(0, interval_ns - elapsed)
        self._paced_event = self._sim.schedule(delay, self._paced_fire)

    def _paced_fire(self) -> None:
        self._paced_event = None
        if self.snd_nxt >= self._demand_end or self.inflight_bytes > 0:
            return
        payload = min(self.config.mss_bytes, self._demand_end - self.snd_nxt)
        self._emit_segment(self.snd_nxt, payload, is_retransmit=False)
        self.snd_nxt += payload

    def _emit_segment(self, seq: int, payload: int,
                      is_retransmit: bool) -> None:
        now = self._sim._now
        # Positional Packet(...): flow, src, dst, seq, payload, is_ack,
        # ack_seq, ece, ecn, is_retransmit, sent_time_ns.
        packet = Packet(self.flow_id, self._host.address, self._dst, seq,
                        payload, False, 0, False, self._data_ecn,
                        is_retransmit, now)
        stats = self.stats
        stats.data_packets_sent += 1
        stats.bytes_sent += payload
        if is_retransmit:
            stats.retransmitted_packets += 1
            stats.retransmitted_bytes += payload
            # Karn: a probe overlapping retransmitted data is ambiguous.
            if (self._rtt_probe is not None
                    and seq < self._rtt_probe[0] <= seq + payload + 1):
                self._rtt_probe = None
        elif self._rtt_probe is None:
            self._rtt_probe = (seq + payload, now)
        if seq + payload > self._highest_sent:
            self._highest_sent = seq + payload
        self._last_send_ns = now
        self._nic.send(packet)
        if self.fec is not None and not is_retransmit:
            self.fec.on_segment_sent(seq, payload, now)
        timer = self._timer
        if timer._deadline is None:  # not timer.armed
            timer.start(self._rto_ns)

    # --- packet input --------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Process an arriving packet for this flow (ACKs only)."""
        if not packet.is_ack:
            return
        if packet.rwnd_bytes is not None:
            self.peer_rwnd_bytes = packet.rwnd_bytes
        now = self._sim._now
        if (packet.incast_degree is not None
                and self._incast_signal is not None):
            self._incast_signal(packet.incast_degree, now)
        ack_seq = packet.ack_seq
        ece = packet.ece
        stats = self.stats
        stats.acks_received += 1
        if ece:
            stats.ece_acks_received += 1
        if self.sack is not None:
            for start, end in packet.sack_blocks:
                self.sack.add(start, end)
        if ack_seq > self.snd_una:
            self._on_new_ack(ack_seq, ece, now)
            self._try_send()
            # A new ACK restarts the RTO clock, and the timer is decided
            # once, after the window has been refilled: disarming it when
            # the ACK empties the pipe only for the next segment to re-arm
            # it in the same event costs a cancel and a push per ACK,
            # whereas start() on an armed timer is a lazy deadline move.
            if self.snd_nxt > self.snd_una:
                self._timer.start(self._rto_ns)
            else:
                self._timer.stop()
        else:
            self._on_dup_ack(ece, now)
            self._try_send()

    def _on_new_ack(self, ack_seq: int, ece: bool, now: int) -> None:
        bytes_acked = ack_seq - self.snd_una
        self.snd_una = ack_seq
        if self.snd_nxt < self.snd_una:
            self.snd_nxt = self.snd_una
        self._dupacks = 0
        if self._rto_backoff != 1:
            self._rto_backoff = 1
            self._rto_ns = self.current_rto_ns()
        if self._rtt_probe is not None and ack_seq >= self._rtt_probe[0]:
            rtt_sample = now - self._rtt_probe[1]
            self._rtt_probe = None
            if rtt_sample > 0:
                # The new RTO is current_rto_ns(): the backoff is 1 here.
                self._rto_ns = self.rtt.sample(rtt_sample)
                if self._samples_rtt:
                    self.cca.on_rtt_sample(rtt_sample, now)
        if self.sack is not None:
            self.sack.advance(ack_seq)
        if self._in_recovery:
            if ack_seq >= self._recovery_point:
                self._in_recovery = False
                self._sack_rtx_above = 0
            elif self.sack is not None:
                self._fill_sack_holes()
            else:
                # NewReno partial ACK: the next hole starts at snd_una.
                payload = min(self.config.mss_bytes,
                              self._demand_end - self.snd_una)
                if payload > 0:
                    self._emit_segment(self.snd_una, payload,
                                       is_retransmit=True)
        self.cca.on_ack(bytes_acked, ece, self.snd_una, self.snd_nxt, now)
        if self._hook_channels:  # hooks.any_active
            hooks = self._hook_registry
            if self._alpha_cca is not None:
                windows = self._alpha_cca.windows_completed
                if windows != self._alpha_windows_seen:
                    self._alpha_windows_seen = windows
                    hooks.emit("flow.alpha", self.flow_id,
                               self._host.address, self._alpha_cca.alpha,
                               now)
            if self.snd_una >= self._demand_end:
                hooks.emit("flow.close", self.flow_id, self._host.address,
                           now)

    def _on_dup_ack(self, ece: bool, now: int) -> None:
        if self.inflight_bytes == 0:
            return
        self._dupacks += 1
        self.cca.on_ack(0, ece, self.snd_una, self.snd_nxt, now)
        if self.sack is not None:
            self._maybe_sack_recovery(now)
            return
        if (self._dupacks == self.config.dupack_threshold
                and not self._in_recovery):
            self._in_recovery = True
            self._recovery_point = self.snd_nxt
            self.stats.fast_retransmits += 1
            self.cca.on_loss(now)
            payload = min(self.config.mss_bytes,
                          self._demand_end - self.snd_una)
            if payload > 0:
                self._emit_segment(self.snd_una, payload, is_retransmit=True)

    # --- SACK recovery ------------------------------------------------------

    def _maybe_sack_recovery(self, now: int) -> None:
        assert self.sack is not None
        if self._in_recovery:
            self._fill_sack_holes()
            return
        if self.sack.is_lost(self.snd_una, self.config.mss_bytes,
                             self.config.dupack_threshold):
            self._in_recovery = True
            self._recovery_point = self.snd_nxt
            self._sack_rtx_above = 0
            self.stats.fast_retransmits += 1
            self.cca.on_loss(now)
            self._fill_sack_holes()

    def _fill_sack_holes(self) -> None:
        """Retransmit presumed-lost holes, pipe-limited, each at most once
        per recovery episode."""
        assert self.sack is not None
        cwnd = self._send_window_bytes()
        while self.pipe_bytes < cwnd:
            hole = self.sack.next_hole(self.snd_una,
                                       above=self._sack_rtx_above)
            if hole is None or hole >= self._recovery_point:
                break
            payload = min(self.config.mss_bytes, self._demand_end - hole,
                          self._recovery_point - hole)
            if payload <= 0:
                break
            self._emit_segment(hole, payload, is_retransmit=True)
            self._sack_rtx_above = hole + payload

    # --- timeout ---------------------------------------------------------------

    def _on_rto(self) -> None:
        if self.inflight_bytes == 0:
            return
        self.stats.rto_events += 1
        self.cca.on_rto(self._sim.now)
        self._in_recovery = False
        self._sack_rtx_above = 0
        if self.sack is not None:
            self.sack.clear()
        self._dupacks = 0
        self._rtt_probe = None
        # Go-back-N: rewind and resend from the last cumulative ACK.
        self.snd_nxt = self.snd_una
        self._rto_backoff = min(self._rto_backoff * 2, _MAX_RTO_BACKOFF)
        self._rto_ns = self.current_rto_ns()
        self._hook_registry.emit("flow.rto", self.flow_id,
                                 self._host.address, self._rto_backoff,
                                 self._sim.now)
        self._timer.start(self._rto_ns)
        self._retransmit_after_rto()

    def _retransmit_after_rto(self) -> None:
        cwnd = self._send_window_bytes()
        while self.snd_nxt < self._demand_end and self.pipe_bytes < cwnd:
            payload = min(self.config.mss_bytes,
                          self._demand_end - self.snd_nxt)
            self._emit_segment(self.snd_nxt, payload,
                               is_retransmit=self.snd_nxt < self._highest_sent)
            self.snd_nxt += payload

    def __repr__(self) -> str:
        return (f"TcpSender(flow={self.flow_id}, una={self.snd_una}, "
                f"nxt={self.snd_nxt}, demand={self._demand_end}, "
                f"cwnd={self.cca.effective_cwnd_bytes():.0f})")


class ReceiverStats:
    """Counters a receiver accumulates over its lifetime."""

    __slots__ = ("data_packets", "duplicate_packets", "acks_sent",
                 "ece_acks_sent", "bytes_received", "ce_packets")

    def __init__(self) -> None:
        self.data_packets = 0
        self.duplicate_packets = 0
        self.acks_sent = 0
        self.ece_acks_sent = 0
        self.bytes_received = 0
        self.ce_packets = 0


class TcpReceiver:
    """The receiving half of a TCP connection.

    Attributes:
        flow_id: Connection identifier.
        rcv_nxt: Next expected contiguous byte (== delivered byte count).
    """

    def __init__(self, sim: Simulator, config: TcpConfig, host: Host,
                 peer_address: int, flow_id: int):
        self._sim = sim
        self._hook_registry = sim.hooks
        self.config = config
        self._host = host
        self._nic = host.nic
        self._peer = peer_address
        self.flow_id = flow_id
        host.register_flow(flow_id, self)

        self.rcv_nxt = 0
        self._ooo: list[tuple[int, int]] = []  # sorted disjoint [start, end)
        self._hooks: list[DeliveryHook] = []
        # Flow control: advertised on every ACK; None = unlimited.
        # Controllers (e.g. the ICTCP-like throttle) mutate this at runtime.
        self.advertised_window_bytes = config.receiver_window_bytes
        self.stats = ReceiverStats()
        self._first_byte_emitted = False
        # Optional FEC decoder (see repro.tcp.fec); attached by a
        # mitigation scheme, None on the default path.
        self.fec = None

        # Delayed-ACK state (DCTCP receiver state machine).
        self._pending_acks = 0
        self._last_ce = False
        self._ack_timer = Timer(sim, self._flush_delayed_ack)

    @property
    def delivered_bytes(self) -> int:
        """Contiguously delivered bytes (application-visible)."""
        return self.rcv_nxt

    def add_delivery_hook(self, hook: DeliveryHook) -> None:
        """Invoke ``hook(delivered_bytes)`` whenever delivery advances."""
        self._hooks.append(hook)

    # --- packet input ----------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Process an arriving packet for this flow (data only)."""
        payload = packet.payload_bytes
        if packet.is_ack or payload == 0:
            return
        if packet.fec_block is not None:
            if self.fec is not None:
                self.fec.on_repair(packet)
            return
        stats = self.stats
        stats.data_packets += 1
        stats.bytes_received += payload
        ce = packet.ecn == _CE
        if ce:
            stats.ce_packets += 1
        start = packet.seq
        end = start + payload
        rcv_nxt = self.rcv_nxt
        if end <= rcv_nxt:
            advanced = False
            stats.duplicate_packets += 1
        elif start <= rcv_nxt and not self._ooo:
            # In order with nothing buffered: the segment extends rcv_nxt
            # (what _accept would do, without the call).
            self.rcv_nxt = end
            advanced = True
        else:
            # Out of order, or filling a hole. ``end`` is above rcv_nxt,
            # and stays so unless rcv_nxt advances: never a duplicate.
            advanced = self._accept(start, end)
        if self.config.delayed_ack:
            self._delayed_ack(ce)
        else:
            self._send_ack(ce)
        if advanced:
            if not self._first_byte_emitted:
                self._first_byte_emitted = True
                self._hook_registry.emit("flow.first_byte", self.flow_id,
                                         self._host.address, self._sim.now)
            for hook in self._hooks:
                hook(self.rcv_nxt)

    def missing_ranges(self, start: int, end: int) -> list[tuple[int, int]]:
        """Byte ranges within ``[start, end)`` not yet received, neither
        contiguously nor in the out-of-order buffer (used by the FEC
        decoder to decide what a repair packet can reconstruct)."""
        cursor = max(start, self.rcv_nxt)
        if cursor >= end:
            return []
        missing: list[tuple[int, int]] = []
        for r_start, r_end in self._ooo:
            if r_end <= cursor:
                continue
            if r_start >= end:
                break
            if r_start > cursor:
                missing.append((cursor, min(r_start, end)))
            cursor = max(cursor, r_end)
            if cursor >= end:
                break
        if cursor < end:
            missing.append((cursor, end))
        return missing

    def deliver_ranges(self, ranges: list[tuple[int, int]]) -> None:
        """Deliver byte ranges recovered out-of-band (FEC repair).

        Each range is merged into the receive state exactly as if the bytes
        had arrived as ordinary segments; if contiguous delivery advances,
        a recovery ACK is sent so the sender's cumulative state catches up
        without waiting for an RTO, and the usual first-byte/delivery hooks
        fire.
        """
        advanced = False
        for start, end in ranges:
            if end > start and self._accept(start, end):
                advanced = True
        if not advanced:
            return
        self._send_ack(False)
        if not self._first_byte_emitted:
            self._first_byte_emitted = True
            self._hook_registry.emit("flow.first_byte", self.flow_id,
                                     self._host.address, self._sim.now)
        for hook in self._hooks:
            hook(self.rcv_nxt)

    def _accept(self, start: int, end: int) -> bool:
        """Merge ``[start, end)`` into the receive state; returns whether
        ``rcv_nxt`` advanced."""
        if end <= self.rcv_nxt:
            return False
        if not self._ooo and start <= self.rcv_nxt:
            # In order with nothing buffered: the range extends rcv_nxt.
            self.rcv_nxt = end
            return True
        start = max(start, self.rcv_nxt)
        self._insert_range(start, end)
        before = self.rcv_nxt
        while self._ooo and self._ooo[0][0] <= self.rcv_nxt:
            first_start, first_end = self._ooo.pop(0)
            self.rcv_nxt = max(self.rcv_nxt, first_end)
        return self.rcv_nxt > before

    def _insert_range(self, start: int, end: int) -> None:
        merged: list[tuple[int, int]] = []
        placed = False
        for r_start, r_end in self._ooo:
            if r_end < start or end < r_start:
                if not placed and r_start > end:
                    merged.append((start, end))
                    placed = True
                merged.append((r_start, r_end))
            else:
                start = min(start, r_start)
                end = max(end, r_end)
        if not placed:
            merged.append((start, end))
            merged.sort()
        self._ooo = merged

    # --- acknowledgments -----------------------------------------------------

    def _send_ack(self, ece: bool) -> None:
        blocks: tuple = ()
        if self.config.sack_enabled and self._ooo:
            blocks = tuple(self._ooo[:self.config.max_sack_blocks])
        # Positional Packet(...): flow, src, dst, seq, payload, is_ack,
        # ack_seq, ece, ecn, is_retransmit, sent_time_ns, sack_blocks,
        # rwnd_bytes. ACKs are never ECN-capable.
        ack = Packet(self.flow_id, self._host.address, self._peer, 0, 0,
                     True, self.rcv_nxt, ece, ECN.NOT_ECT, False, None,
                     blocks, self.advertised_window_bytes)
        self.stats.acks_sent += 1
        if ece:
            self.stats.ece_acks_sent += 1
        self._nic.send(ack)

    def _delayed_ack(self, ce: bool) -> None:
        """DCTCP delayed-ACK rule: flush immediately on a CE-state change so
        the sender's marked-byte fraction stays exact; otherwise coalesce
        two packets per ACK with a flush timeout."""
        if self._pending_acks > 0 and ce != self._last_ce:
            self._send_ack(self._last_ce)
            self._pending_acks = 0
            self._ack_timer.stop()
        self._last_ce = ce
        self._pending_acks += 1
        if self._pending_acks >= 2:
            self._send_ack(ce)
            self._pending_acks = 0
            self._ack_timer.stop()
        else:
            self._ack_timer.start(self.config.delayed_ack_timeout_ns)

    def _flush_delayed_ack(self) -> None:
        if self._pending_acks > 0:
            self._send_ack(self._last_ce)
            self._pending_acks = 0

    def __repr__(self) -> str:
        return (f"TcpReceiver(flow={self.flow_id}, rcv_nxt={self.rcv_nxt}, "
                f"ooo={len(self._ooo)})")


_next_flow_id = 0


def open_connection(sim: Simulator, config: TcpConfig,
                    cca: CongestionControl, sender_host: Host,
                    receiver_host: Host,
                    flow_id: Optional[int] = None
                    ) -> tuple[TcpSender, TcpReceiver]:
    """Create both halves of a persistent connection between two hosts.

    Flow ids are globally unique by default so NIC demultiplexing stays
    unambiguous no matter how hosts are shared between experiments.
    """
    global _next_flow_id
    if flow_id is None:
        flow_id = _next_flow_id
        _next_flow_id += 1
    sender = TcpSender(sim, config, cca, sender_host, receiver_host.address,
                       flow_id)
    receiver = TcpReceiver(sim, config, receiver_host, sender_host.address,
                           flow_id)
    return sender, receiver
