"""Mixed elephant/mice flow-set generation for the leaf-spine sweeps.

The ECN-threshold grids deliberately overlap two traffic classes on one
bottleneck — long-lived *elephants* that build a standing queue, and a
synchronized *mice* incast whose FCTs feel that queue — the construction
the related ECN-tuning studies use to expose the threshold trade-off
(deep thresholds keep elephants fast, shallow thresholds keep mice fast).

This module is pure planning: it turns a config plus an
:class:`~repro.simcore.random.RngHub` into a deterministic
:class:`FlowPlan` — who sends, to whom, how much, starting when — held
as columns, one tuple per field, because that is what every executor
reads (a fluid wave gathers sizes and starts, the packet executor zips
the columns into scheduled opens). :class:`FlowSpec` is the one-flow row
view, built on demand (:attr:`FlowPlan.rows`). Tests exercise the
generator without any simulator at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, cycle, islice
from typing import Sequence

from repro import units
from repro.simcore.random import RngHub

KIND_ELEPHANT = "elephant"
KIND_MOUSE = "mouse"

#: Every plan's one receiver: host rank 0 (rack 0, host 0).
RECEIVER_RANK = 0


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
class FlowPlan:
    """A deterministic flow plan, held as columns.

    Entry ``i`` of every column describes the same planned flow, in the
    order the planner emitted them (ascending ``flow_id``); :attr:`rows`
    builds the :class:`FlowSpec` rows. The constructor checks once what
    each row would check (positive sizes, non-negative starts, with the
    row's message) and that the columns have equal lengths.

    Attributes:
        flow_ids: Sim-local flow id per flow.
        kinds: :data:`KIND_ELEPHANT` or :data:`KIND_MOUSE` per flow.
        src_ranks: Sending host rank per flow.
        dst_ranks: Receiving host rank per flow.
        sizes: Demand in bytes per flow.
        starts: Start instant (ns) per flow.
    """

    flow_ids: tuple[int, ...] = ()
    kinds: tuple[str, ...] = ()
    src_ranks: tuple[int, ...] = ()
    dst_ranks: tuple[int, ...] = ()
    sizes: tuple[int, ...] = ()
    starts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        columns = (self.flow_ids, self.kinds, self.src_ranks,
                   self.dst_ranks, self.sizes, self.starts)
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"FlowPlan columns need one entry per flow; "
                             f"got lengths {[len(c) for c in columns]}")
        if self.flow_ids and (min(self.sizes) <= 0 or min(self.starts) < 0):
            # Building the rows raises the first bad row's own message.
            self.rows

    def __len__(self) -> int:
        return len(self.flow_ids)

    @property
    def rows(self) -> tuple[FlowSpec, ...]:
        """The flows as :class:`FlowSpec` rows, in plan order (built on
        each access; a fluid point never reads them)."""
        return tuple(map(FlowSpec, self.flow_ids, self.kinds,
                         self.src_ranks, self.dst_ranks, self.sizes,
                         self.starts))

    def take(self, keep: Sequence[bool]) -> "FlowPlan":
        """The sub-plan of the flows whose ``keep`` entry is true, in
        plan order."""
        return FlowPlan(*(tuple(compress(column, keep)) for column in (
            self.flow_ids, self.kinds, self.src_ranks, self.dst_ranks,
            self.sizes, self.starts)))


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
        check_mix(self)

    @property
    def receiver_rank(self) -> int:
        """Fabric-local rank of the single incast receiver."""
        return RECEIVER_RANK


def check_mix(cfg) -> None:
    """Validate a mix shape: the eight :class:`ElephantMiceConfig` fields
    of ``cfg``, which may be any config that carries them
    (``ElephantMiceGridConfig`` checks itself here, building no view)."""
    if cfg.n_racks < 2 or cfg.hosts_per_rack < 1:
        raise ValueError("need at least two racks of hosts")
    if cfg.n_elephants < 0 or cfg.n_mice <= 0:
        raise ValueError("need a positive mouse count and a "
                         "non-negative elephant count")
    if cfg.elephant_bytes <= 0 or cfg.mouse_bytes <= 0:
        raise ValueError("flow sizes must be positive")
    if cfg.warmup_ns < 0 or cfg.mouse_jitter_ns < 0:
        raise ValueError("warmup and jitter must be >= 0")
    remote = (cfg.n_racks - 1) * cfg.hosts_per_rack
    if cfg.n_elephants > remote:
        raise ValueError(
            f"{cfg.n_elephants} elephants need distinct remote "
            f"hosts but only {remote} exist")


def remote_ranks(cfg: ElephantMiceConfig) -> list[int]:
    """Host ranks outside the receiver's rack, in fabric build order."""
    return list(range(cfg.hosts_per_rack,
                      cfg.n_racks * cfg.hosts_per_rack))


def plan_elephant_mice(cfg: ElephantMiceConfig, rng_hub: RngHub
                       ) -> FlowPlan:
    """Compile the deterministic flow plan for one scenario run.

    ``cfg`` is an :class:`ElephantMiceConfig`, or any config
    :func:`check_mix` accepted that carries its eight fields. Elephants
    (flow ids ``0 .. n_elephants-1``) take the first remote hosts (one
    host each, so no sender is both elephant and mouse source unless the
    mice wrap) and start at t=0; mice round-robin over the remaining
    remote hosts. All randomness (mouse start jitter) draws from named
    ``rng_hub`` streams, so the plan is a pure function of ``(config,
    hub seed)`` — independent of process history, worker placement, and
    call order. Every column is built whole; no per-flow object is.
    """
    n_elephants, n_mice = cfg.n_elephants, cfg.n_mice
    ranks = remote_ranks(cfg)
    mouse_hosts = ranks[n_elephants:] or ranks
    if cfg.mouse_jitter_ns > 0:
        # One draw of n_mice doubles: PCG64 spends one double per
        # element, so this is bit for bit the n scalar draws, generator
        # state included.
        jitters = rng_hub.stream("mix/mouse_jitter").uniform(
            0, cfg.mouse_jitter_ns, size=n_mice).tolist()
        warmup_ns = cfg.warmup_ns
        mouse_starts = tuple([warmup_ns + int(jitter) for jitter in jitters])
    else:
        mouse_starts = (cfg.warmup_ns,) * n_mice
    return FlowPlan(
        tuple(range(n_elephants + n_mice)),
        (KIND_ELEPHANT,) * n_elephants + (KIND_MOUSE,) * n_mice,
        (*ranks[:n_elephants], *islice(cycle(mouse_hosts), n_mice)),
        (RECEIVER_RANK,) * (n_elephants + n_mice),
        (cfg.elephant_bytes,) * n_elephants + (cfg.mouse_bytes,) * n_mice,
        (0,) * n_elephants + mouse_starts)


def flow_sizes(plan: FlowPlan) -> dict[int, int]:
    """``{flow_id: size_bytes}`` — the classification input FCT
    extraction wants (:func:`repro.analysis.fct.extract_fcts`)."""
    return dict(zip(plan.flow_ids, plan.sizes))
