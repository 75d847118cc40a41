"""Sub-incast admission scheduling (Section 5.2 design direction).

The paper's discussion proposes dividing a large incast into "a series of
smaller incasts where only a manageable number of flows are active at once",
so each active flow operates in a healthy CWND regime. This module
implements that receiver-driven scheduler: the flow set is partitioned into
admission groups of at most ``group_size`` flows; a burst releases group
g+1's demand only when every flow of group g has delivered its share.

This is the paper's envisioned *enhancement* to TCP (not a replacement):
flows still run their normal CCA; only the time at which each worker's
response is requested changes — exactly the lever a partition/aggregate
coordinator controls.

Ablation C compares a 500-flow monolithic incast against the same demand
scheduled as 5 groups of 100.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import units
from repro.netsim.queues import DropTailQueue
from repro.simcore.kernel import Simulator
from repro.tcp.connection import TcpReceiver, TcpSender


@dataclass
class SchedulerConfig:
    """Parameters of the sub-incast scheduler."""

    group_size: int = 100
    n_bursts: int = 11
    start_jitter_ns: int = units.usec(100.0)
    inter_burst_gap_ns: int = units.msec(5.0)
    inter_group_gap_ns: int = 0

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if self.n_bursts <= 0:
            raise ValueError("n_bursts must be positive")


@dataclass
class ScheduledBurstResult:
    """Measurements for one scheduled (multi-group) burst."""

    index: int
    start_ns: int
    complete_ns: int
    n_groups: int
    peak_queue_packets: int
    drops: int
    rto_events: int

    @property
    def bct_ns(self) -> int:
        """Time from burst start until the last group completes."""
        return self.complete_ns - self.start_ns

    @property
    def bct_ms(self) -> float:
        """Burst completion time in milliseconds."""
        return units.ns_to_ms(self.bct_ns)


class IncastScheduler:
    """Runs cyclic incast bursts with staged group admission.

    The scheduler mirrors :class:`~repro.workloads.incast.IncastWorkload`'s
    cyclic structure, but inside each burst, demand is released one
    admission group at a time.
    """

    def __init__(self, sim: Simulator,
                 connections: list[tuple[TcpSender, TcpReceiver]],
                 config: SchedulerConfig, rng: np.random.Generator,
                 queue: DropTailQueue, demand_bytes_per_flow: int):
        if not connections:
            raise ValueError("need at least one connection")
        if demand_bytes_per_flow <= 0:
            raise ValueError("demand must be positive")
        self._sim = sim
        self._senders = [s for s, _ in connections]
        self._receivers = [r for _, r in connections]
        self.config = config
        self._rng = rng
        self._queue = queue
        self.demand_bytes_per_flow = demand_bytes_per_flow
        self._groups = self._partition(len(connections), config.group_size)
        self.results: list[ScheduledBurstResult] = []
        self._burst_index = 0
        self._group_index = 0
        self._burst_start_ns = 0
        self._stats_mark = (0, 0)
        self._done = False
        for receiver in self._receivers:
            receiver.add_delivery_hook(self._on_delivery)

    @staticmethod
    def _partition(n_flows: int, group_size: int) -> list[list[int]]:
        indices = list(range(n_flows))
        return [indices[i:i + group_size]
                for i in range(0, n_flows, group_size)]

    @property
    def n_groups(self) -> int:
        """Number of admission groups per burst."""
        return len(self._groups)

    @property
    def done(self) -> bool:
        """Whether all configured bursts have completed."""
        return self._done

    # --- burst/group launch -------------------------------------------------

    def start(self, at_ns: Optional[int] = None) -> None:
        """Schedule the first burst (now by default)."""
        self._sim.schedule_at(self._sim.now if at_ns is None else at_ns,
                              self._launch_burst)

    def _launch_burst(self) -> None:
        self._burst_start_ns = self._sim.now
        self._group_index = 0
        self._queue.stats.reset_watermark()
        stats = self._queue.stats
        self._stats_mark = (stats.dropped_packets,
                            sum(s.stats.rto_events for s in self._senders))
        self._launch_group(0)

    def _launch_group(self, group: int) -> None:
        for flow_index in self._groups[group]:
            jitter = (int(self._rng.uniform(0, self.config.start_jitter_ns))
                      if self.config.start_jitter_ns > 0 else 0)
            self._sim.schedule(jitter, self._senders[flow_index].send,
                               (self.demand_bytes_per_flow,))

    # --- completion tracking ----------------------------------------------------

    def _target(self) -> int:
        return self.demand_bytes_per_flow * (self._burst_index + 1)

    def _group_complete(self, group: int) -> bool:
        target = self._target()
        return all(self._receivers[i].delivered_bytes >= target
                   for i in self._groups[group])

    def _on_delivery(self, _delivered: int) -> None:
        if self._done:
            return
        while (self._group_index < len(self._groups)
               and self._group_complete(self._group_index)):
            self._group_index += 1
            if self._group_index < len(self._groups):
                self._sim.schedule(self.config.inter_group_gap_ns,
                                   self._launch_group, (self._group_index,))
                return
        if self._group_index >= len(self._groups):
            self._finish_burst()

    def _finish_burst(self) -> None:
        drops0, rto0 = self._stats_mark
        stats = self._queue.stats
        self.results.append(ScheduledBurstResult(
            index=self._burst_index,
            start_ns=self._burst_start_ns,
            complete_ns=self._sim.now,
            n_groups=len(self._groups),
            peak_queue_packets=stats.max_len_packets,
            drops=stats.dropped_packets - drops0,
            rto_events=(sum(s.stats.rto_events for s in self._senders)
                        - rto0),
        ))
        self._burst_index += 1
        if self._burst_index >= self.config.n_bursts:
            self._done = True
        else:
            self._sim.schedule(self.config.inter_burst_gap_ns,
                               self._launch_burst)

    # --- analysis -------------------------------------------------------------

    def steady_results(self) -> list[ScheduledBurstResult]:
        """Results with the first burst discarded (slow-start transient)."""
        if len(self.results) > 1:
            return self.results[1:]
        return list(self.results)

    def mean_bct_ms(self) -> float:
        """Average BCT over the steady bursts."""
        steady = self.steady_results()
        if not steady:
            return 0.0
        return float(np.mean([r.bct_ms for r in steady]))
