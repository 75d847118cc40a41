"""Mixed elephant/mice flow-set generation for the leaf-spine sweeps.

The ECN-threshold grids deliberately overlap two traffic classes on one
bottleneck — long-lived *elephants* that build a standing queue, and a
synchronized *mice* incast whose FCTs feel that queue — the construction
the related ECN-tuning studies use to expose the threshold trade-off
(deep thresholds keep elephants fast, shallow thresholds keep mice fast).

This module is pure planning: it turns a config plus an
:class:`~repro.simcore.random.RngHub` into a deterministic list of
:class:`FlowSpec` s (who sends, to whom, how much, starting when). The
scenario executors wire the specs onto a built fabric; tests exercise the
generator without any simulator at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.simcore.random import RngHub

KIND_ELEPHANT = "elephant"
KIND_MOUSE = "mouse"


@dataclass(frozen=True)
class FlowSpec:
    """One planned flow, in fabric-local coordinates.

    ``src_rank`` / ``dst_rank`` index hosts by fabric build order
    (``rack_index * hosts_per_rack + host_index``) so a plan never
    depends on process-global host addresses; ``flow_id`` is the
    sim-local connection id the scenario assigns.
    """

    flow_id: int
    kind: str
    src_rank: int
    dst_rank: int
    size_bytes: int
    start_ns: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"flow {self.flow_id}: size must be positive")
        if self.start_ns < 0:
            raise ValueError(f"flow {self.flow_id}: start must be >= 0")


@dataclass(frozen=True)
class ElephantMiceConfig:
    """Parameters of one elephant/mice coexistence plan.

    The receiver is host rank 0 (rack 0, host 0). Elephants start at
    t=0 from distinct remote hosts so their standing queue exists before
    the mice arrive; the mice form one synchronized cross-rack incast at
    ``warmup_ns`` with per-flow jitter (worker response-time variation,
    the same model as the Section 4 burst workload).
    """

    n_racks: int = 3
    hosts_per_rack: int = 8
    n_elephants: int = 2
    n_mice: int = 16
    elephant_bytes: int = 1_000_000
    mouse_bytes: int = 20_000
    warmup_ns: int = units.msec(2.0)
    mouse_jitter_ns: int = units.usec(100.0)

    def __post_init__(self) -> None:
        if self.n_racks < 2 or self.hosts_per_rack < 1:
            raise ValueError("need at least two racks of hosts")
        if self.n_elephants < 0 or self.n_mice <= 0:
            raise ValueError("need a positive mouse count and a "
                             "non-negative elephant count")
        if self.elephant_bytes <= 0 or self.mouse_bytes <= 0:
            raise ValueError("flow sizes must be positive")
        if self.warmup_ns < 0 or self.mouse_jitter_ns < 0:
            raise ValueError("warmup and jitter must be >= 0")
        remote = (self.n_racks - 1) * self.hosts_per_rack
        if self.n_elephants > remote:
            raise ValueError(
                f"{self.n_elephants} elephants need distinct remote "
                f"hosts but only {remote} exist")

    @property
    def receiver_rank(self) -> int:
        """Fabric-local rank of the single incast receiver."""
        return 0


def remote_ranks(cfg: ElephantMiceConfig) -> list[int]:
    """Host ranks outside the receiver's rack, in fabric build order."""
    return list(range(cfg.hosts_per_rack,
                      cfg.n_racks * cfg.hosts_per_rack))


def plan_elephant_mice(cfg: ElephantMiceConfig, rng_hub: RngHub
                       ) -> list[FlowSpec]:
    """Compile the deterministic flow plan for one scenario run.

    Elephants take the first remote hosts (one host each, so no sender
    is both elephant and mouse source unless the mice wrap); mice
    round-robin over the remaining remote hosts. All randomness (mouse
    start jitter) draws from named ``rng_hub`` streams, so the plan is a
    pure function of ``(config, hub seed)`` — independent of process
    history, worker placement, and call order.
    """
    ranks = remote_ranks(cfg)
    flows: list[FlowSpec] = []
    for i in range(cfg.n_elephants):
        flows.append(FlowSpec(
            flow_id=i, kind=KIND_ELEPHANT, src_rank=ranks[i],
            dst_rank=cfg.receiver_rank, size_bytes=cfg.elephant_bytes,
            start_ns=0))
    mouse_hosts = ranks[cfg.n_elephants:] or ranks
    jitter_rng = rng_hub.stream("mix/mouse_jitter")
    # One draw of n_mice doubles: PCG64 spends one double per element, so
    # this is bit for bit the n scalar draws, generator state included.
    jitters = (jitter_rng.uniform(0, cfg.mouse_jitter_ns,
                                  size=cfg.n_mice).tolist()
               if cfg.mouse_jitter_ns > 0 else [0] * cfg.n_mice)
    for j, jitter in enumerate(jitters):
        flows.append(FlowSpec(
            flow_id=cfg.n_elephants + j, kind=KIND_MOUSE,
            src_rank=mouse_hosts[j % len(mouse_hosts)],
            dst_rank=cfg.receiver_rank, size_bytes=cfg.mouse_bytes,
            start_ns=cfg.warmup_ns + int(jitter)))
    return flows


def flow_sizes(flows: list[FlowSpec]) -> dict[int, int]:
    """``{flow_id: size_bytes}`` — the classification input FCT
    extraction wants (:func:`repro.analysis.fct.extract_fcts`)."""
    return {flow.flow_id: flow.size_bytes for flow in flows}
