"""Millisecond-granularity fluid model of an incast bottleneck.

The Section 3 fleet model needs to turn thousands of synthetic bursts into
Millisampler-style interval records. Packet-level simulation at that volume
is wasteful, so this module provides a fluid-flow counterpart built on the
same physics the packet model (and the paper's Section 4 analysis) exhibits:

- window-limited queueing: the backlog of an aggregate window W at the
  bottleneck equilibrates at ``W - BDP`` (the paper's degenerate-point
  arithmetic), and senders are ACK-clocked, so the queue can never exceed
  that;
- all-or-nothing ECN marking: intervals during which the queue exceeds the
  marking threshold mark essentially *all* arrivals (Figure 1c);
- overflow: backlog beyond the *effective* capacity (which rack-level
  buffer contention can reduce below the configured limit) is dropped and
  retransmitted in following intervals;
- DCTCP aggregate dynamics: the aggregate window of K flows grows additively
  per round when unmarked, is cut proportionally to alpha when marked, and
  is floored at ``K * MSS`` — the degenerate point.

The recursion runs at 1 ms steps; the number of congestion-control rounds
per step follows from the backlog-inflated RTT, as in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import units

_EPSILON_BYTES = 1.0


@dataclass
class FluidConfig:
    """Environment of the fluid bottleneck (production-like defaults:
    25 Gbps NICs, 30 us base RTT, 2 MB ToR queue, ECN at 6.7% of capacity —
    the paper's production ECN threshold)."""

    line_rate_bps: float = units.gbps(25.0)
    base_rtt_ns: int = units.usec(30.0)
    capacity_bytes: int = 2_000_000
    ecn_threshold_frac: float = 0.067
    mss_bytes: int = 1500
    interval_ns: int = units.msec(1.0)
    dctcp_g: float = 1.0 / 16.0
    aggregate_growth_mss_per_round: float = 1.0
    max_window_bytes: float = 8_000_000.0
    growth_overshoot_factor: float = 2.0

    @property
    def drain_bytes_per_interval(self) -> float:
        """Bytes the downlink drains per interval."""
        return self.line_rate_bps * self.interval_ns / (
            units.BITS_PER_BYTE * units.NS_PER_S)

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product of the bottleneck path."""
        return self.line_rate_bps * self.base_rtt_ns / (
            units.BITS_PER_BYTE * units.NS_PER_S)

    @property
    def ecn_threshold_bytes(self) -> float:
        """ECN marking threshold in bytes."""
        return self.ecn_threshold_frac * self.capacity_bytes


def production_fluid_config() -> FluidConfig:
    """The Section 3 production environment (25 Gbps NICs, 2 MB shared ToR
    queues, ECN at 6.7% of capacity)."""
    return FluidConfig()


class FluidConstants(NamedTuple):
    """What the interval recursion reads of a :class:`FluidConfig`, worked
    out once per config instead of once per burst."""

    drain: float
    bdp: float
    thresh: float
    capacity: int
    keep_alpha: float
    growth_per_flow_round: float
    overshoot: float
    max_window: float
    mss_bytes: int
    base_rtt_ns: int
    line_rate_bps: float
    interval_ns: int

    @classmethod
    def of(cls, config: FluidConfig) -> "FluidConstants":
        """The constants of ``config``."""
        bdp = config.bdp_bytes
        thresh = config.ecn_threshold_bytes
        # Positional, in field order.
        return cls(
            config.drain_bytes_per_interval, bdp, thresh,
            config.capacity_bytes, 1.0 - config.dctcp_g,
            config.aggregate_growth_mss_per_round * config.mss_bytes,
            # At 1 ms granularity, unchecked growth would overshoot the
            # marking point by tens of rounds before the model reacts; real
            # DCTCP is cut within ~1 RTT of crossing the threshold, so
            # growth-driven windows are clamped to a bounded overshoot above
            # it. (Carried-over windows may still start arbitrarily higher.)
            config.growth_overshoot_factor * (thresh + bdp),
            config.max_window_bytes, config.mss_bytes, config.base_rtt_ns,
            config.line_rate_bps, config.interval_ns)


class FluidColumns(NamedTuple):
    """The five per-interval columns :func:`run_burst` appends to. One set
    takes any number of bursts, one after the other."""

    delivered_bytes: list[float]
    marked_bytes: list[float]
    retransmit_bytes: list[float]
    dropped_bytes: list[float]
    queue_frac: list[float]


def burst_start(config: FluidConfig, flow_count: int, demand_bytes: int,
                effective_capacity_bytes: float,
                window_start_factor: float = 1.0,
                initial_alpha: float = 0.5,
                arrival_rate_factor: float = float("inf")
                ) -> tuple[float, float, float]:
    """Check one incast burst's inputs and clamp them into the state
    :func:`run_burst` starts from.

    Args:
        config: The fluid environment.
        flow_count: K, the incast degree.
        demand_bytes: Aggregate bytes the K workers must deliver.
        effective_capacity_bytes: Queue capacity actually available (shared
            buffering may make this less than the configured capacity).
        window_start_factor: Initial aggregate window, in multiples of the
            degenerate floor ``K * MSS``. Values above 1 model CWND state
            carried over from previous bursts (straggler ramp-up,
            Section 4.3).
        initial_alpha: Starting DCTCP alpha estimate of the aggregate.
        arrival_rate_factor: Peak aggregate arrival rate as a multiple of
            the line rate. Values <= 1 model loosely synchronized worker
            responses that saturate the link without queueing (the ~50% of
            production bursts that never mark, Figure 4b); values > 1 model
            tightly synchronized responses that build queues.

    Returns ``(effective capacity, aggregate window, alpha)``.
    """
    if arrival_rate_factor <= 0:
        raise ValueError("arrival_rate_factor must be positive")
    if flow_count <= 0:
        raise ValueError("flow_count must be positive")
    if demand_bytes <= 0:
        raise ValueError("demand_bytes must be positive")
    if effective_capacity_bytes <= 0:
        raise ValueError("effective capacity must be positive")
    return (min(effective_capacity_bytes, float(config.capacity_bytes)),
            min(max(window_start_factor, 0.05)
                * float(flow_count * config.mss_bytes),
                config.max_window_bytes),
            min(max(initial_alpha, 0.0), 1.0))


def run_burst(constants: FluidConstants, flow_count: int, demand_bytes: int,
              effective_capacity_bytes: float, window_bytes: float,
              alpha: float, arrival_rate_factor: float,
              columns: FluidColumns,
              max_intervals: int = 2000) -> tuple[int, float, float]:
    """Run one burst to completion (or ``max_intervals``) from the state
    :func:`burst_start` returned, appending one value per interval to each
    of ``columns``.

    Returns ``(intervals appended, final aggregate window, final alpha)``.
    """
    # The loop runs once per simulated millisecond of every fleet burst:
    # what is fixed for the burst is computed here, and every clamp is a
    # comparison that picks the operand min/max would.
    (drain, bdp, thresh, capacity, keep_alpha, growth_per_flow_round,
     overshoot, max_window, mss_bytes, base_rtt_ns, line_rate_bps,
     interval_ns) = constants
    # The queueing-delay term of the RTT is +0.0 on an empty queue, so the
    # rounds per interval are then this ratio; x * 8 is exact, so
    # x * 8e9 is the same float as x * 8 * 1e9.
    rounds_when_empty = interval_ns / (base_rtt_ns + 0.0)
    bit_ns_per_byte = float(units.BITS_PER_BYTE * units.NS_PER_S)
    eff_cap = effective_capacity_bytes
    room = eff_cap + drain
    arrival_cap = arrival_rate_factor * drain
    growth_per_round = growth_per_flow_round * flow_count
    window_floor = float(flow_count * mss_bytes)
    w = window_bytes
    delivered_l, marked_l, retx_l, dropped_l, queue_l = columns
    add_delivered, add_marked = delivered_l.append, marked_l.append
    add_retx, add_dropped = retx_l.append, dropped_l.append
    add_queue = queue_l.append
    already = len(delivered_l)

    remaining = float(demand_bytes)
    retx_pool = 0.0
    queue = 0.0
    retx_frac_of_queue = 0.0

    for _ in range(max_intervals):
        pending = remaining + retx_pool
        if pending + queue <= _EPSILON_BYTES:
            break
        # ACK clocking: senders can refill drained capacity and grow the
        # backlog at most up to W - BDP; they also cannot emit more than
        # one window per round.
        backlog_room = (w - bdp) - queue
        send_limit = (backlog_room if backlog_room > 0.0 else 0.0) + drain
        if queue == 0.0:
            per_round = w * rounds_when_empty
        else:
            per_round = w * (interval_ns / (
                base_rtt_ns + queue * bit_ns_per_byte / line_rate_bps))
        if per_round < send_limit:
            send_limit = per_round
        if arrival_cap < send_limit:
            send_limit = arrival_cap
        if send_limit < 0.0:
            send_limit = 0.0
        send = send_limit if send_limit < pending else pending
        retx_sent = send if send < retx_pool else retx_pool
        retx_pool -= retx_sent
        remaining -= send - retx_sent

        q_start = queue
        total = queue + send
        kept = room if room < total else total
        dropped = total - kept
        delivered = drain if drain < kept else kept
        queue = kept - delivered
        if queue < q_start:
            lo, hi = queue, q_start
        else:
            lo, hi = q_start, queue

        # Track what share of the standing data is retransmitted bytes,
        # so deliveries can be attributed (this is what the host-side
        # sampler reports as retransmit traffic).
        retx_in = retx_frac_of_queue * q_start + retx_sent
        retx_frac_of_queue = retx_in / total if total > 0 else 0.0
        # Drops return to the retransmission pool.
        retx_pool += dropped

        # ECN marking: all arrivals while the queue sits above the
        # threshold are marked; when the queue crosses the threshold
        # within the interval, the marked share is the fraction of the
        # excursion above it.
        if hi <= thresh:
            marked = 0.0
        elif lo >= thresh:
            marked = send
        else:
            excursion = hi - lo
            marked = send * (hi - thresh) / (
                1.0 if excursion < 1.0 else excursion)

        # Aggregate DCTCP reaction over the rounds actually clocked.
        busy_rounds = send / w if w > 0 else 0.0
        if busy_rounds > 0.0:
            if marked > 0.0:
                alpha = 1.0 - (1.0 - alpha) * keep_alpha ** busy_rounds
                cut = w * (1.0 - alpha / 2.0) ** busy_rounds
                w = cut if cut > window_floor else window_floor
            else:
                alpha *= keep_alpha ** busy_rounds
                growth_cap = overshoot if overshoot > w else w
                w += growth_per_round * busy_rounds
                if growth_cap < w:
                    w = growth_cap
                if max_window < w:
                    w = max_window

        add_delivered(delivered)
        add_marked(marked)
        add_retx(delivered * retx_frac_of_queue)
        add_dropped(dropped)
        # Occupancy is reported against the *configured* capacity (the
        # units of Figure 4a); contention lowers the achievable maximum.
        add_queue((hi if hi < eff_cap else eff_cap) / capacity)

    return len(delivered_l) - already, w, alpha


def degenerate_point_flows(config: FluidConfig) -> int:
    """The flow count K* beyond which the fluid queue cannot drain below
    the ECN threshold even at minimum windows (the paper's Section 4.1.2
    degenerate point, in the production environment)."""
    budget = config.ecn_threshold_bytes + config.bdp_bytes
    return int(np.ceil(budget / config.mss_bytes))
