"""Synthetic production-service fleet (Section 3 substrate).

The paper instruments five Meta services with Millisampler. Production
traces are proprietary, so this module generates synthetic host traces from
a partition/aggregate burst model whose parameters are calibrated to the
distributions the paper reports (Figures 1-4), then drives every burst
through the fluid ToR bottleneck (:mod:`repro.netsim.fluid`) so that ECN
marking, queue buildup, and retransmissions *emerge from queueing dynamics*
rather than being sampled from target distributions.

Per-burst draws and what they model:

- **arrival time** — Poisson burst arrivals; per-host rate multipliers give
  the cross-host spread of Figure 2a (tens to ~200 bursts/s).
- **duration** — truncated-geometric burst volume: ~60% of bursts last
  1-2 ms, with a tail to 20 ms (Figure 2b).
- **flow count** — lognormal incast degree, optionally with a low "cliff"
  mode for bimodal services (storage and aggregator, whose checkpoint-like
  tasks use < 20 flows), capped at 600 (Figure 2c); "video" alternates
  between two operating regimes (~225 and ~275 flows) across snapshots as
  its scheduler spools workers up and down (Figure 3a).
- **synchronization** — how tightly the worker responses align, expressed
  as the peak aggregate arrival rate in multiples of line rate. Loosely
  synchronized bursts (factor <= 1) saturate the link without queueing —
  the ~half of production bursts that never mark (Figure 4b).
- **window carryover** — CWND state retained from previous bursts
  (straggler ramp-up, Section 4.3), which sets the initial queue spike.
- **contention** — rack-level buffer sharing that shrinks the capacity
  effectively available to this host's queue (Sections 3.4 and 4.1.1),
  the main source of the rare-but-catastrophic drops of Figure 4c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.measurement.records import HostTrace, TraceMeta
from repro.netsim.fluid import (FluidColumns, FluidConfig, FluidConstants,
                                burst_start, run_burst)


@dataclass(frozen=True)
class ServiceProfile:
    """Calibrated burst statistics of one production service."""

    name: str
    description: str
    burst_rate_hz: float
    duration_geom_p: float
    flow_median: float
    flow_sigma: float
    sync_log_mean: float
    low_mode_weight: float = 0.0
    low_mode_range: tuple[int, int] = (2, 20)
    flow_cap: int = 600
    max_duration_ms: int = 20
    sync_log_sigma: float = 0.35
    carryover_log_mean: float = np.log(1.8)
    carryover_log_sigma: float = 0.55
    contention_beta: tuple[float, float] = (0.9, 3.2)
    background_util_range: tuple[float, float] = (0.002, 0.02)
    host_rate_sigma: float = 0.45
    regime_flow_medians: Optional[tuple[float, ...]] = None
    regime_switch_prob: float = 0.35

    # --- per-burst draws ---------------------------------------------------

    def draw_burst(self, rng: np.random.Generator, log_median: float
                   ) -> tuple[int, int, float, float, float, float]:
        """One burst's six draws, in the order the generator's stream
        depends on: ``(duration_ms, flow_count, sync_factor, carryover,
        contention, volume_noise)``.

        - duration: nominal length in ms, truncated geometric in
          ``[1, max_duration_ms]``;
        - flow count: the incast degree — the low "cliff" mode with
          probability ``low_mode_weight``, else lognormal around
          ``exp(log_median)``, clamped to ``[1, flow_cap]``;
        - sync factor: peak arrival rate as a multiple of line rate;
        - carryover: initial aggregate window in multiples of the K*MSS
          floor, clamped to ``[0.1, 3.5]`` (persistent connections rarely
          carry more than a few segments per flow into the next burst,
          Figure 7);
        - contention: fraction of the shared buffer other ports consume;
        - volume noise: multiplier on the burst's nominal volume.

        Clamps are comparisons that pick the value ``min``/``max`` would.
        """
        duration = int(rng.geometric(self.duration_geom_p))
        if duration < 1:
            duration = 1
        if self.max_duration_ms < duration:
            duration = self.max_duration_ms
        if self.low_mode_weight > 0 and rng.random() < self.low_mode_weight:
            lo, hi = self.low_mode_range
            flow_count = int(rng.integers(lo, hi + 1))
        else:
            count = rng.lognormal(log_median, self.flow_sigma)
            if count < 1:
                count = 1
            if self.flow_cap < count:
                count = self.flow_cap
            flow_count = int(count)
        sync = float(np.exp(rng.normal(self.sync_log_mean,
                                       self.sync_log_sigma)))
        carryover = float(np.exp(rng.normal(self.carryover_log_mean,
                                            self.carryover_log_sigma)))
        if carryover < 0.1:
            carryover = 0.1
        if 3.5 < carryover:
            carryover = 3.5
        contention = rng.beta(*self.contention_beta)
        return (duration, flow_count, sync, carryover, contention,
                rng.normal(0.97, 0.04))

    def regime_median(self, regime_index: int) -> Optional[float]:
        """Flow-count median of operating regime ``regime_index``."""
        if self.regime_flow_medians is None:
            return None
        return self.regime_flow_medians[
            regime_index % len(self.regime_flow_medians)]


SERVICE_PROFILES: dict[str, ServiceProfile] = {
    "storage": ServiceProfile(
        name="storage",
        description="Distributed key-value store",
        burst_rate_hz=35.0,
        duration_geom_p=0.42,
        flow_median=80.0,
        flow_sigma=0.50,
        low_mode_weight=0.45,
        sync_log_mean=np.log(0.98),
        carryover_log_mean=np.log(1.6),
    ),
    "aggregator": ServiceProfile(
        name="aggregator",
        description="Collects content to display on a page",
        burst_rate_hz=55.0,
        duration_geom_p=0.40,
        flow_median=160.0,
        flow_sigma=0.45,
        low_mode_weight=0.10,
        sync_log_mean=np.log(1.12),
        carryover_log_mean=np.log(2.3),
        carryover_log_sigma=0.60,
    ),
    "indexer": ServiceProfile(
        name="indexer",
        description="Indexing service for recommendations",
        burst_rate_hz=130.0,
        duration_geom_p=0.45,
        flow_median=60.0,
        flow_sigma=0.45,
        sync_log_mean=np.log(0.93),
        sync_log_sigma=0.30,
    ),
    "messaging": ServiceProfile(
        name="messaging",
        description="Distributed real-time messaging system",
        burst_rate_hz=18.0,
        duration_geom_p=0.50,
        flow_median=35.0,
        flow_sigma=0.50,
        sync_log_mean=np.log(0.82),
        sync_log_sigma=0.28,
        carryover_log_mean=np.log(1.4),
        carryover_log_sigma=0.45,
    ),
    "video": ServiceProfile(
        name="video",
        description="Video analytics service",
        burst_rate_hz=60.0,
        duration_geom_p=0.35,
        flow_median=250.0,
        flow_sigma=0.25,
        sync_log_mean=np.log(1.12),
        carryover_log_mean=np.log(2.0),
        regime_flow_medians=(225.0, 275.0),
    ),
}
"""The paper's Table 1 services, with calibrated burst parameters."""


def regime_sequence(profile: ServiceProfile, n_snapshots: int,
                    rng: np.random.Generator) -> list[int]:
    """Operating-regime index per snapshot (Markov switching). Services
    without regimes stay at index 0."""
    if profile.regime_flow_medians is None:
        return [0] * n_snapshots
    sequence = [int(rng.integers(0, len(profile.regime_flow_medians)))]
    for _ in range(n_snapshots - 1):
        current = sequence[-1]
        if rng.random() < profile.regime_switch_prob:
            current = (current + 1) % len(profile.regime_flow_medians)
        sequence.append(current)
    return sequence


def host_rate_multiplier(profile: ServiceProfile,
                         rng: np.random.Generator) -> float:
    """Per-host burst-rate multiplier (cross-host spread of Figure 2a)."""
    return float(np.exp(rng.normal(0.0, profile.host_rate_sigma)))


def generate_host_trace(profile: ServiceProfile, meta: TraceMeta,
                        rng: np.random.Generator,
                        duration_ms: int = 2000,
                        fluid_config: Optional[FluidConfig] = None,
                        regime_index: int = 0,
                        rate_multiplier: float = 1.0) -> HostTrace:
    """Generate one Millisampler-style capture for one host.

    Bursts arrive Poisson at the host's effective rate; each burst is
    played through the fluid bottleneck and its per-interval deliveries,
    marks, retransmissions, and queue occupancy are written into the trace.
    """
    cfg = fluid_config or FluidConfig()
    constants = FluidConstants.of(cfg)
    drain = constants.drain
    n = duration_ms
    ingress = np.zeros(n, dtype=np.int64)
    flows = np.zeros(n, dtype=np.int64)
    marked = np.zeros(n, dtype=np.int64)
    retx = np.zeros(n, dtype=np.int64)
    queue_frac = np.zeros(n, dtype=np.float64)

    rate_hz = profile.burst_rate_hz * rate_multiplier
    regime_med = profile.regime_median(regime_index)
    # What every burst of the capture shares, worked out once.
    log_median = np.log(regime_med if regime_med is not None
                        else profile.flow_median)
    gap_mean_ms = 1000.0 / max(rate_hz, 1e-6)
    capacity = cfg.capacity_bytes
    capacity_floor = 0.25 * capacity
    min_volume = int(0.6 * drain)
    draw_burst = profile.draw_burst
    exponential, normal = rng.exponential, rng.normal

    # Bursts never overlap (the next starts >= 1 ms after the previous one
    # ends), so the loop only draws and runs the fluid model, which appends
    # every burst to the same columns, and notes which intervals each burst
    # covers; the trace is written once, below. Clamps are comparisons that
    # pick the operand min/max would.
    covered: list[int] = []
    fluid = FluidColumns([], [], [], [], [])
    active: list[np.ndarray] = []
    t = 0.0
    end = 0
    while True:
        gap_ms = exponential(gap_mean_ms)
        t += 1.0 if gap_ms < 1.0 else gap_ms
        start = int(t)
        if start >= n:
            break
        if start < end:
            raise RuntimeError(f"burst at {start} ms overlaps the previous "
                               f"one, which ends at {end} ms")
        duration, flow_count, sync, carryover, contention, noise = \
            draw_burst(rng, log_median)
        effective_cap = capacity * (1.0 - contention)
        if capacity_floor > effective_cap:
            effective_cap = capacity_floor
        volume = int(drain * duration * (1.0 if 1.0 < sync else sync)
                     * noise)
        if min_volume > volume:
            volume = min_volume
        effective_cap, window, alpha = burst_start(
            cfg, flow_count, volume, effective_cap,
            window_start_factor=carryover, arrival_rate_factor=sync)
        n_intervals, _, _ = run_burst(constants, flow_count, volume,
                                      effective_cap, window, alpha, sync,
                                      fluid)
        t = end = start + n_intervals
        span = (end if end < n else n) - start
        covered.extend(range(start, start + span))
        spread = 0.03 * flow_count
        active.append(normal(flow_count, spread if spread > 1.0 else 1.0,
                             size=span))

    if covered:
        # Only the last burst can run past the capture: cutting the columns
        # to the covered intervals drops exactly its overhang.
        at = np.asarray(covered)

        def cut(column: list[float]) -> np.ndarray:
            return np.asarray(column)[:len(at)]

        delivered = cut(fluid.delivered_bytes)
        ingress[at] = delivered.astype(np.int64)
        marked[at] = np.minimum(cut(fluid.marked_bytes),
                                delivered).astype(np.int64)
        retx[at] = cut(fluid.retransmit_bytes).astype(np.int64)
        queue_frac[at] = cut(fluid.queue_frac)
        flows[at] = np.maximum(1, np.concatenate(active)).astype(np.int64)

    _add_background(profile, rng, drain, ingress, flows)
    np.minimum(ingress, int(drain), out=ingress)
    return HostTrace(meta, cfg.line_rate_bps, ingress, flows, marked, retx,
                     interval_ns=cfg.interval_ns, queue_frac=queue_frac)


def _add_background(profile: ServiceProfile, rng: np.random.Generator,
                    drain: float, ingress: np.ndarray,
                    flows: np.ndarray) -> None:
    """Low-rate non-burst traffic on the intervals without burst data."""
    idle = ingress == 0
    n_idle = int(idle.sum())
    if n_idle == 0:
        return
    lo, hi = profile.background_util_range
    util = rng.uniform(lo, hi, size=n_idle)
    ingress[idle] = (util * drain).astype(np.int64)
    flows[idle] = rng.integers(0, 9, size=n_idle)
