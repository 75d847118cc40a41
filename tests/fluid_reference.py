"""The fluid recursion as first written: the oracle for ``run_burst``.

``reference_run`` is the loop of the first fluid burst class's ``run``,
from before its config-derived constants were hoisted and its
``min``/``max`` chains became comparisons. Its body is kept verbatim; the
burst's inputs arrive as arguments and are gathered into the ``self``
that body reads, so that ``tests/test_fluid.py`` can require the kernel
to produce the same floats, interval for interval, and the same final
window and alpha. Do not optimise this file.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro import units
from repro.netsim.fluid import _EPSILON_BYTES, FluidConfig


class ReferenceTrace(NamedTuple):
    """Per-interval outputs of one reference burst, as arrays."""

    delivered_bytes: np.ndarray
    marked_bytes: np.ndarray
    retransmit_bytes: np.ndarray
    dropped_bytes: np.ndarray
    queue_frac: np.ndarray


def reference_run(config: FluidConfig, flow_count: int, demand_bytes: int,
                  effective_capacity_bytes: float, window_bytes: float,
                  alpha: float, arrival_rate_factor: float,
                  max_intervals: int = 2000
                  ) -> tuple[ReferenceTrace, float, float]:
    """One burst from the state ``burst_start`` returns, as the loop ran
    before it was tightened; returns ``(trace, final window, final
    alpha)``."""
    self = SimpleNamespace(
        config=config, flow_count=flow_count, demand_bytes=demand_bytes,
        effective_capacity_bytes=effective_capacity_bytes,
        window_bytes=window_bytes, alpha=alpha,
        arrival_rate_factor=arrival_rate_factor,
        window_floor_bytes=float(flow_count * config.mss_bytes))
    cfg = self.config
    drain = cfg.drain_bytes_per_interval
    bdp = cfg.bdp_bytes
    thresh = cfg.ecn_threshold_bytes
    eff_cap = self.effective_capacity_bytes

    delivered_l: list[float] = []
    marked_l: list[float] = []
    retx_l: list[float] = []
    dropped_l: list[float] = []
    queue_l: list[float] = []

    remaining = float(self.demand_bytes)
    retx_pool = 0.0
    queue = 0.0
    retx_frac_of_queue = 0.0

    for _ in range(max_intervals):
        if remaining + retx_pool + queue <= _EPSILON_BYTES:
            break
        w = self.window_bytes
        rtt_eff_ns = cfg.base_rtt_ns + queue * units.BITS_PER_BYTE \
            * units.NS_PER_S / cfg.line_rate_bps
        rounds_capacity = cfg.interval_ns / rtt_eff_ns
        # ACK clocking: senders can refill drained capacity and grow the
        # backlog at most up to W - BDP; they also cannot emit more than
        # one window per round.
        backlog_room = max(0.0, (w - bdp) - queue)
        send_limit = min(backlog_room + drain, w * rounds_capacity,
                         self.arrival_rate_factor * drain)
        send = min(remaining + retx_pool, max(send_limit, 0.0))
        retx_sent = min(retx_pool, send)
        fresh_sent = send - retx_sent
        retx_pool -= retx_sent
        remaining -= fresh_sent

        q_start = queue
        total = queue + send
        kept = min(total, eff_cap + drain)
        dropped = total - kept
        delivered = min(kept, drain)
        queue = kept - delivered
        peak = min(eff_cap, max(q_start, queue))

        # Track what share of the standing data is retransmitted bytes,
        # so deliveries can be attributed (this is what the host-side
        # sampler reports as retransmit traffic).
        retx_in = retx_frac_of_queue * q_start + retx_sent
        retx_frac_total = retx_in / total if total > 0 else 0.0
        retx_delivered = delivered * retx_frac_total
        retx_frac_of_queue = retx_frac_total
        # Drops return to the retransmission pool.
        retx_pool += dropped

        # ECN marking: all arrivals while the queue sits above the
        # threshold are marked; when the queue crosses the threshold
        # within the interval, the marked share is the fraction of the
        # excursion above it.
        lo, hi = min(q_start, queue), max(q_start, queue)
        if hi <= thresh:
            marked = 0.0
        elif lo >= thresh:
            marked = send
        else:
            marked = send * (hi - thresh) / max(hi - lo, 1.0)

        # Aggregate DCTCP reaction over the rounds actually clocked.
        busy_rounds = send / w if w > 0 else 0.0
        if marked > 0.0 and busy_rounds > 0.0:
            self.alpha = 1.0 - (1.0 - self.alpha) \
                * (1.0 - cfg.dctcp_g) ** busy_rounds
            self.window_bytes = max(
                self.window_floor_bytes,
                w * (1.0 - self.alpha / 2.0) ** busy_rounds)
        elif busy_rounds > 0.0:
            self.alpha *= (1.0 - cfg.dctcp_g) ** busy_rounds
            growth = (cfg.aggregate_growth_mss_per_round * cfg.mss_bytes
                      * self.flow_count * busy_rounds)
            # At 1 ms granularity, unchecked growth would overshoot the
            # marking point by tens of rounds before the model reacts;
            # real DCTCP is cut within ~1 RTT of crossing the threshold,
            # so growth-driven windows are clamped to a bounded
            # overshoot above it. (Carried-over windows may still start
            # arbitrarily higher.)
            growth_cap = max(w, cfg.growth_overshoot_factor
                             * (thresh + bdp))
            self.window_bytes = min(w + growth, growth_cap,
                                    cfg.max_window_bytes)

        delivered_l.append(delivered)
        marked_l.append(marked)
        retx_l.append(retx_delivered)
        dropped_l.append(dropped)
        # Occupancy is reported against the *configured* capacity (the
        # units of Figure 4a); contention lowers the achievable maximum.
        queue_l.append(peak / cfg.capacity_bytes)

    return ReferenceTrace(
        delivered_bytes=np.asarray(delivered_l),
        marked_bytes=np.asarray(marked_l),
        retransmit_bytes=np.asarray(retx_l),
        dropped_bytes=np.asarray(dropped_l),
        queue_frac=np.asarray(queue_l),
    ), self.window_bytes, self.alpha
