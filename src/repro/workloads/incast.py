"""The cyclic incast burst application (Section 4).

A coordinator dispatches work to N workers; their roughly synchronized
responses form one *burst*. This module drives N persistent TCP connections
through a configurable number of such bursts:

- every flow receives *equal demand* per burst, sized so that the aggregate
  equals ``bottleneck_rate * burst_duration`` (the paper's setup);
- per-flow start times within a burst are jittered uniformly over 0-100 us
  to model variation in worker processing time;
- connections persist across bursts, so congestion-window state carries
  over — the precondition for the straggler divergence of Section 4.3;
- burst k+1 starts a fixed gap after burst k *completes* (the
  partition/aggregate pattern: the coordinator waits for all replies);
- optionally, a burst asks for its flows' demand in *admission groups*
  (Section 5.2's "series of smaller incasts where only a manageable
  number of flows are active at once"): group g+1 is asked once every
  flow of groups 0..g has delivered. Flows keep their normal CCA; only
  the time each worker is asked for its response changes, exactly the
  lever a partition/aggregate coordinator controls.

Per burst, the workload records start/completion times, burst completion
time (BCT), the bottleneck queue's peak occupancy, and drop/mark/retransmit
deltas. A :class:`FlowStateSampler` can additionally sample every flow's
in-flight bytes on a fixed period (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from repro import units
from repro.netsim.queues import DropTailQueue
from repro.simcore.kernel import Simulator
from repro.tcp.connection import TcpReceiver, TcpSender


def demand_per_flow_bytes(bottleneck_rate_bps: float, burst_duration_ns: int,
                          n_flows: int) -> int:
    """Equal per-flow demand such that the burst's aggregate volume matches
    ``bottleneck_rate * duration`` (the paper's construction)."""
    if n_flows <= 0:
        raise ValueError("n_flows must be positive")
    total = units.bytes_in_interval(bottleneck_rate_bps, burst_duration_ns)
    return max(1, total // n_flows)


@dataclass
class IncastConfig:
    """Parameters of the cyclic burst workload (defaults = the paper's)."""

    n_bursts: int = 11
    burst_duration_ns: int = units.msec(15.0)
    start_jitter_ns: int = units.usec(100.0)
    inter_burst_gap_ns: int = units.msec(5.0)
    #: Flows asked at once per admission group; ``None`` asks every flow.
    group_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_bursts <= 0:
            raise ValueError("n_bursts must be positive")
        if self.burst_duration_ns <= 0:
            raise ValueError("burst_duration_ns must be positive")
        if self.start_jitter_ns < 0:
            raise ValueError("start_jitter_ns must be >= 0")
        if self.group_size is not None and self.group_size <= 0:
            raise ValueError("group_size must be positive")


@dataclass
class BurstResult:
    """Measurements for one completed burst."""

    index: int
    start_ns: int
    complete_ns: int
    demand_bytes_per_flow: int
    n_flows: int
    peak_queue_packets: int
    drops: int
    marked_packets: int
    retransmitted_packets: int
    rto_events: int
    fast_retransmits: int

    @property
    def bct_ns(self) -> int:
        """Burst completion time: last delivery minus burst start."""
        return self.complete_ns - self.start_ns

    @property
    def bct_ms(self) -> float:
        """Burst completion time in milliseconds."""
        return units.ns_to_ms(self.bct_ns)

    @property
    def total_bytes(self) -> int:
        """Aggregate payload delivered by the burst."""
        return self.demand_bytes_per_flow * self.n_flows


class FlowStateSampler:
    """Samples per-flow in-flight bytes on a fixed period (Figure 7).

    Each sample stores the simulation time and, for every flow, its
    in-flight byte count plus whether the flow was *active* (had
    unacknowledged or unsent demand) at that instant.
    """

    def __init__(self, sim: Simulator, senders: list[TcpSender],
                 period_ns: int = units.usec(100.0)):
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self._sim = sim
        self._senders = senders
        self._period_ns = period_ns
        self.times_ns: list[int] = []
        self.inflight: list[np.ndarray] = []
        self.active: list[np.ndarray] = []
        self._running = False

    def start(self) -> None:
        """Begin sampling now."""
        if not self._running:
            self._running = True
            self._tick()

    def stop(self) -> None:
        """Stop sampling at the next tick."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.times_ns.append(self._sim.now)
        self.inflight.append(np.fromiter(
            (s.inflight_bytes for s in self._senders), dtype=np.int64,
            count=len(self._senders)))
        self.active.append(np.fromiter(
            (s.active for s in self._senders), dtype=bool,
            count=len(self._senders)))
        # Fire-and-forget: stop() works by flag, never by cancellation, so
        # the pooled no-handle path serves (and allocates nothing).
        self._sim.schedule_fire(self._period_ns, self._tick)

    def __getstate__(self) -> dict:
        # The sampler is pickled as part of work-unit payloads crossing
        # process boundaries in the experiment engine. The captured samples
        # travel; the live simulator/sender graph (unpicklable and huge)
        # does not — an unpickled sampler is a read-only record.
        state = self.__dict__.copy()
        state["_sim"] = None
        state["_senders"] = []
        state["_running"] = False
        return state


class IncastWorkload:
    """Drives N persistent connections through cyclic incast bursts.

    Usage::

        workload = IncastWorkload(sim, conns, config, rng,
                                  queue=net.bottleneck_queue)
        workload.start()
        sim.run()
        results = workload.results

    The workload schedules everything through the simulator, so callers can
    freely co-run probes and other traffic.
    """

    def __init__(self, sim: Simulator,
                 connections: list[tuple[TcpSender, TcpReceiver]],
                 config: IncastConfig, rng: np.random.Generator,
                 queue: DropTailQueue,
                 demand_bytes_per_flow: Optional[int] = None):
        if not connections:
            raise ValueError("need at least one connection")
        self._sim = sim
        self._senders = [s for s, _ in connections]
        self._receivers = [r for _, r in connections]
        self.config = config
        self._rng = rng
        self._queue = queue
        if demand_bytes_per_flow is None:
            raise ValueError("demand_bytes_per_flow must be given")
        self.demand_bytes_per_flow = demand_bytes_per_flow
        self.results: list[BurstResult] = []
        self.burst_starts_ns: list[int] = []
        self._done_callbacks: list = []
        self._burst_index = -1
        self._completing_index = 0
        self._group_size = config.group_size or len(self._senders)
        self._admitted = 0  # flows asked so far in the current burst
        self._done = False
        self._stats_marks = self._snapshot_stats()
        # Completion is tracked with O(1) per-delivery counters: receiver i
        # has "level" floor(delivered / demand) — an admission group of
        # burst k is complete once as many receivers are at a level > k
        # (delivered >= demand * (k+1)) as the burst has admitted, and the
        # burst once that is every receiver. Scanning all N receivers on
        # every delivered segment is quadratic in flow count.
        self._levels = [0] * len(self._receivers)
        self._level_done: dict[int, int] = {}
        # One bound method for every receiver, each hook a partial that
        # adds the receiver's index (a closure per receiver costs three
        # times the bytes).
        on_delivery = self._on_delivery
        for index, receiver in enumerate(self._receivers):
            receiver.add_delivery_hook(partial(on_delivery, index))

    # --- lifecycle -----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether every configured burst has completed."""
        return self._done

    def add_done_callback(self, callback) -> None:
        """Invoke ``callback()`` once when the final burst completes
        (used to stop probes so the simulation drains promptly)."""
        self._done_callbacks.append(callback)

    @property
    def n_flows(self) -> int:
        """Number of participating flows."""
        return len(self._senders)

    def start(self, at_ns: Optional[int] = None) -> None:
        """Schedule the workload's bursts, starting at ``at_ns`` (now by
        default)."""
        first = self._sim.now if at_ns is None else at_ns
        self._sim.schedule_at(first, self._launch_burst, (0,))

    def _launch_burst(self, index: int) -> None:
        self._burst_index = index
        self.burst_starts_ns.append(self._sim.now)
        self._queue.stats.reset_watermark()
        self._admitted = 0
        self._launch_group(*self._admit())

    def _admit(self) -> tuple[int, int]:
        """Count the next admission group as asked: its flow range."""
        first = self._admitted
        self._admitted = min(first + self._group_size, len(self._senders))
        return first, self._admitted

    def _launch_group(self, first: int, end: int) -> None:
        for sender in self._senders[first:end]:
            jitter = (int(self._rng.uniform(0, self.config.start_jitter_ns))
                      if self.config.start_jitter_ns > 0 else 0)
            self._sim.schedule(jitter, sender.send,
                               (self.demand_bytes_per_flow,))

    # --- completion tracking ----------------------------------------------------

    def _on_delivery(self, index: int, delivered: int) -> None:
        level = delivered // self.demand_bytes_per_flow
        levels = self._levels
        prev = levels[index]
        if level > prev:
            levels[index] = level
            level_done = self._level_done
            for k in range(prev + 1, level + 1):
                level_done[k] = level_done.get(k, 0) + 1
            self._on_level_crossed()

    def _on_level_crossed(self) -> None:
        n = len(self._receivers)
        level_done = self._level_done
        while (self._completing_index <= self._burst_index
               and not self._done
               and level_done.get(self._completing_index + 1, 0)
               >= self._admitted):
            if self._admitted < n:
                # Admitted now, so a later delivery cannot ask it again.
                self._sim.schedule(0, self._launch_group, self._admit())
                return
            self._finish_burst(self._completing_index)
            self._completing_index += 1

    def _snapshot_stats(self) -> tuple[int, int, int, int, int]:
        stats = self._queue.stats
        return (stats.dropped_packets, stats.marked_packets,
                sum(s.stats.retransmitted_packets for s in self._senders),
                sum(s.stats.rto_events for s in self._senders),
                sum(s.stats.fast_retransmits for s in self._senders))

    def _finish_burst(self, index: int) -> None:
        drops0, marks0, rtx0, rto0, frx0 = self._stats_marks
        drops1, marks1, rtx1, rto1, frx1 = self._snapshot_stats()
        self._stats_marks = (drops1, marks1, rtx1, rto1, frx1)
        self.results.append(BurstResult(
            index=index,
            start_ns=self.burst_starts_ns[index],
            complete_ns=self._sim.now,
            demand_bytes_per_flow=self.demand_bytes_per_flow,
            n_flows=self.n_flows,
            peak_queue_packets=self._queue.stats.max_len_packets,
            drops=drops1 - drops0,
            marked_packets=marks1 - marks0,
            retransmitted_packets=rtx1 - rtx0,
            rto_events=rto1 - rto0,
            fast_retransmits=frx1 - frx0,
        ))
        if index + 1 >= self.config.n_bursts:
            self._done = True
            for callback in self._done_callbacks:
                callback()
            return
        self._sim.schedule(self.config.inter_burst_gap_ns,
                           self._launch_burst, (index + 1,))

    # --- analysis helpers ---------------------------------------------------------

    def steady_results(self) -> list[BurstResult]:
        """Results with the first burst discarded (slow-start transient),
        per the paper's methodology."""
        if len(self.results) > 1:
            return self.results[1:]
        return list(self.results)

    def mean_bct_ms(self) -> float:
        """Average BCT over the steady bursts."""
        steady = self.steady_results()
        if not steady:
            return 0.0
        return float(np.mean([r.bct_ms for r in steady]))
