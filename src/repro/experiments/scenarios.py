"""Leaf-spine sweep scenarios: the executors the sweep DSL dispatches to.

Two grid scenarios, both running on :mod:`repro.netsim.leafspine` and both
measured through per-flow FCT extraction (:mod:`repro.analysis.fct`)
rather than the burst-completion-time lens of the Section 4 dumbbell
experiments:

- ``leafspine_incast`` — a synchronized cross-rack incast under the
  fabric's seeded ECMP: senders spread over the remote racks converge on
  one receiver, so every flow crosses a spine and the destination leaf's
  downlink is the bottleneck (:func:`run_cross_rack_incast`).
- ``leafspine_mix`` — elephant/mice coexistence for the ECN-threshold
  grids: long flows build a standing queue at the shared downlink, then a
  mice incast lands on it; mice FCTs feel the threshold K directly
  (:func:`run_elephant_mice`).

Scenario configs are deliberately *flat* dataclasses of scalars so a YAML
sweep axis can override any field by name, and every executor follows the
same recipe: build the fabric, schedule each planned flow's connection to
*open at its start time* (``flow.open`` fires at sender construction, so
FCT = close - open only measures the flow if construction happens at the
start), run, then renumber the telemetry capture to fabric-local ranks and
sim-local flow ids so output is independent of process history.

Every config also carries a ``backend`` axis (``packet`` / ``fluid`` /
``hybrid``, :data:`repro.experiments.backend_names.BACKENDS`): because it is
an ordinary config field, a sweep can put the simulation substrate on a
grid axis and the engine cache keys the choice like any other parameter.
``packet`` is the default and runs the executors below unchanged;
``fluid`` and ``hybrid`` dispatch to :mod:`repro.experiments.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro import units
from repro.analysis.fct import DEFAULT_MOUSE_MAX_BYTES, FctSet, extract_fcts
from repro.experiments.backend_names import check_backend
from repro.simcore.random import RngHub
from repro.tcp.cca import CCA_NAMES
from repro.tcp.schemes import DEFAULT_SCHEME, get_scheme
from repro.workloads.mix import (KIND_MOUSE, ElephantMiceConfig, FlowPlan,
                                 check_mix, flow_sizes, plan_elephant_mice)

if TYPE_CHECKING:
    from repro.telemetry.recorder import TelemetryCapture


@dataclass
class ScenarioResult:
    """Picklable outcome of one scenario run (one sweep grid point).

    Attributes:
        scenario: Registry name of the executor that produced this.
        params: The flat config fields the run used (JSON-able).
        fcts: Per-flow FCT records, classified mice/elephants.
        bottleneck: Scalar counters of the receiver-downlink queue — the
            occupancy/marking side of the FCT-vs-K trade-off.
        telemetry: Full interval capture when the unit requested it.
    """

    scenario: str
    params: dict
    fcts: FctSet
    bottleneck: dict
    telemetry: Optional[TelemetryCapture] = None
    scheme_stats: Optional[dict] = None

    def export_dict(self) -> dict:
        """Scalar digest for JSON export and golden fixtures."""
        return self.export_with(self.fcts.summary())

    def export_with(self, fct_summary: dict) -> dict:
        """:meth:`export_dict` around the ``self.fcts.summary()`` the
        caller already holds (a sweep merge digests every point's flows
        at once, :class:`~repro.analysis.fct.FctGrid`)."""
        out = {"scenario": self.scenario, "params": dict(self.params),
               "fct": fct_summary,
               "bottleneck": dict(self.bottleneck)}
        # Present only for non-default schemes, mirroring the params
        # elision: pre-zoo exports stay byte-identical.
        if self.params.get("scheme"):
            out["scheme_stats"] = self.scheme_stats
        return out


@cache
def _field_reader(config_cls: type) -> tuple[tuple[str, ...], attrgetter]:
    """A config class's field names, in declaration order, and the one
    getter that reads them all (worked out once per class)."""
    names = tuple(f.name for f in fields(config_cls))
    return names, attrgetter(*names)


def _config_params(cfg) -> dict:
    """A scenario config's fields as a plain JSON-able dict.

    The default ``packet`` backend and default ``dctcp`` scheme are
    elided: exports and golden fixtures produced before those axes
    existed stay byte-identical, while any non-default choice is always
    visible in provenance.
    """
    names, read = _field_reader(type(cfg))
    params = dict(zip(names, read(cfg)))
    if params.get("backend") == "packet":
        del params["backend"]
    if params.get("scheme") == DEFAULT_SCHEME:
        del params["scheme"]
    return params


def _check_config(cfg) -> None:
    """Validate a leaf-spine config's spine count and its CCA, scheme and
    backend axes. The backend rules are the dumbbell config's own (one
    helper), so a fluid run refuses telemetry here as it does there; the
    spine count is the fabric's own rule, checked here because a fluid
    run builds no fabric."""
    if cfg.n_spines <= 0:
        raise ValueError("rack/host/spine counts must be positive")
    if cfg.cca not in CCA_NAMES:
        raise ValueError(f"unknown CCA {cfg.cca!r}; "
                         f"choose from {sorted(CCA_NAMES)}")
    get_scheme(cfg.scheme)
    check_backend(cfg.backend, packet_window=cfg.telemetry,
                  packet_state=cfg.scheme != DEFAULT_SCHEME)


@dataclass(frozen=True)
class CrossRackIncastConfig:
    """One cross-rack incast run (flat, sweep-overridable fields).

    ``n_senders`` round-robin over every host outside the receiver's rack,
    so with enough senders the incast arrives over every spine path the
    seeded ECMP installed.
    """

    n_racks: int = 3
    hosts_per_rack: int = 8
    n_spines: int = 2
    n_senders: int = 12
    flow_bytes: int = 50_000
    start_jitter_ns: int = units.usec(100.0)
    ecn_threshold_packets: int = 65
    queue_capacity_packets: int = 1333
    cca: str = "dctcp"
    dctcp_g: float = 1.0 / 16.0
    ecmp_seed: int = 0
    seed: int = 0
    max_sim_time_ns: int = units.sec(2.0)
    telemetry: bool = False
    telemetry_interval_ns: int = units.msec(1.0)
    mouse_max_bytes: int = DEFAULT_MOUSE_MAX_BYTES
    backend: str = "packet"
    scheme: str = DEFAULT_SCHEME

    def __post_init__(self) -> None:
        if self.n_racks < 2:
            raise ValueError("cross-rack incast needs at least two racks")
        if self.n_senders <= 0 or self.flow_bytes <= 0:
            raise ValueError("sender count and flow size must be positive")
        _check_config(self)

    def plan(self, hub: RngHub) -> FlowPlan:
        """The deterministic flow plan: one mouse-class flow per sender,
        jittered around t=0 like the Section 4 burst workload."""
        mix = ElephantMiceConfig(
            n_racks=self.n_racks, hosts_per_rack=self.hosts_per_rack,
            n_elephants=0, n_mice=self.n_senders,
            mouse_bytes=self.flow_bytes, warmup_ns=0,
            mouse_jitter_ns=self.start_jitter_ns)
        return plan_elephant_mice(mix, hub)


@dataclass(frozen=True)
class ElephantMiceGridConfig:
    """One elephant/mice coexistence run (flat, sweep-overridable fields).

    The natural grid axes are ``ecn_threshold_packets`` (K) and the mix
    shape (``n_mice``, ``n_elephants``); everything else pins the fabric.
    """

    n_racks: int = 3
    hosts_per_rack: int = 8
    n_spines: int = 2
    n_elephants: int = 2
    n_mice: int = 16
    elephant_bytes: int = 1_000_000
    mouse_bytes: int = 20_000
    warmup_ns: int = units.msec(2.0)
    mouse_jitter_ns: int = units.usec(100.0)
    ecn_threshold_packets: int = 65
    queue_capacity_packets: int = 1333
    cca: str = "dctcp"
    dctcp_g: float = 1.0 / 16.0
    ecmp_seed: int = 0
    seed: int = 0
    max_sim_time_ns: int = units.sec(2.0)
    telemetry: bool = False
    telemetry_interval_ns: int = units.msec(1.0)
    mouse_max_bytes: int = DEFAULT_MOUSE_MAX_BYTES
    backend: str = "packet"
    scheme: str = DEFAULT_SCHEME

    def __post_init__(self) -> None:
        _check_config(self)
        check_mix(self)  # the mix shape, eagerly

    def plan(self, hub: RngHub) -> FlowPlan:
        """The deterministic elephant/mice flow plan (the planner reads
        the mix fields off this config; no ``ElephantMiceConfig`` view is
        built)."""
        return plan_elephant_mice(self, hub)


def _execute_plan(name: str, cfg, plan: FlowPlan) -> ScenarioResult:
    """Run a planned flow set on a fresh leaf-spine fabric.

    Connections open *at each flow's start time* (scheduled, not
    pre-built): ``flow.open`` fires when the sender is constructed, so
    this is what makes FCT = close - open a statement about the flow
    rather than about scenario setup. Explicit sim-local flow ids keep
    the capture independent of the process-global connection counter.
    """
    # The packet substrate loads here, where a run chooses it: a fluid
    # grid must not pay for (or depend on) the TCP stack, the switch
    # model or the recorder.
    from repro.experiments.environment import CCA_FACTORIES
    from repro.netsim.leafspine import LeafSpineConfig, build_leaf_spine
    from repro.simcore.kernel import Simulator
    from repro.tcp.config import TcpConfig
    from repro.tcp.connection import open_connection
    from repro.tcp.schemes import SchemeContext
    from repro.telemetry.recorder import TelemetryRecorder

    sim = Simulator()
    fab = build_leaf_spine(sim, LeafSpineConfig(
        n_racks=cfg.n_racks, hosts_per_rack=cfg.hosts_per_rack,
        n_spines=cfg.n_spines,
        queue_capacity_packets=cfg.queue_capacity_packets,
        ecn_threshold_packets=cfg.ecn_threshold_packets,
        ecmp_seed=cfg.ecmp_seed))
    hosts = fab.hosts
    receiver = hosts[0]
    bottleneck = fab.downlink_queue(receiver)

    recorder = TelemetryRecorder(sim,
                                 interval_ns=cfg.telemetry_interval_ns)
    recorder.attach()
    if cfg.telemetry:
        recorder.attach_host(receiver)
        recorder.attach_queue(bottleneck)

    tcp = TcpConfig()

    # Scheme installation precedes all traffic (queue watchers must
    # attach while the switch fast paths can still fall back to the
    # byte-identical legacy pump); the default installs nothing.
    runtime = None
    if cfg.scheme != DEFAULT_SCHEME:
        fab_cfg = fab.config
        # RTT across host->leaf->spine->leaf->host: 8 propagation legs.
        bdp_bytes = int(fab_cfg.host_rate_bps
                        * (8 * fab_cfg.link_prop_delay_ns) / 8e9)
        runtime = get_scheme(cfg.scheme).install(
            SchemeContext(
                sim=sim, tcp=tcp, n_flows=len(plan),
                ecn_threshold_packets=cfg.ecn_threshold_packets,
                queue_capacity_packets=cfg.queue_capacity_packets,
                bdp_bytes=bdp_bytes, bottleneck_queue=bottleneck,
                receiver_host=receiver),
            {})

    def open_flow(flow_id: int, src_rank: int, dst_rank: int,
                  size_bytes: int) -> None:
        cca = CCA_FACTORIES[cfg.cca](tcp, cfg.dctcp_g)
        if runtime is not None:
            cca = runtime.wrap_cca(cca)
        sender, flow_receiver = open_connection(sim, tcp, cca,
                                                hosts[src_rank],
                                                hosts[dst_rank],
                                                flow_id=flow_id)
        if runtime is not None:
            runtime.on_connection(sender, flow_receiver)
        sender.send(size_bytes)

    for flow_id, src_rank, dst_rank, size_bytes, start_ns in zip(
            plan.flow_ids, plan.src_ranks, plan.dst_ranks, plan.sizes,
            plan.starts):
        sim.schedule_at(start_ns, open_flow,
                        (flow_id, src_rank, dst_rank, size_bytes))
    sim.run(until_ns=cfg.max_sim_time_ns)
    scheme_stats = None
    if runtime is not None:
        runtime.stop()
        scheme_stats = runtime.finish()

    capture = recorder.export()
    recorder.detach()
    # Host addresses come from a process-global counter; fabric build
    # order is the sim-local coordinate. Flow ids are already sim-local.
    addr_map = {host.address: rank for rank, host in enumerate(hosts)}
    capture = capture.renumbered(addr_map, {})

    fcts = extract_fcts(capture.events, sizes=flow_sizes(plan),
                        mouse_max_bytes=cfg.mouse_max_bytes)
    stats = bottleneck.stats
    result = ScenarioResult(
        scenario=name,
        params=_config_params(cfg),
        fcts=fcts,
        bottleneck={
            "max_len_packets": stats.max_len_packets,
            "marked_packets": stats.marked_packets,
            "dropped_packets": stats.dropped_packets,
            "enqueued_packets": stats.enqueued_packets,
        },
        telemetry=capture if cfg.telemetry else None,
        scheme_stats=scheme_stats,
    )
    return result


@cache
def _fluid_executors() -> tuple:
    """``(run_fluid_plan, run_hybrid_plan)``, imported on the first call:
    the mirror image of :func:`_execute_plan`'s imports, so the packet
    path does not pay for (or depend on) the fluid machinery, and a grid
    point does not pay an ``import`` statement."""
    from repro.experiments.backends import run_fluid_plan, run_hybrid_plan
    return run_fluid_plan, run_hybrid_plan


def _run_backend(name: str, cfg, plan: FlowPlan) -> ScenarioResult:
    """Dispatch one planned run to the configured simulation substrate."""
    if cfg.backend == "packet":
        return _execute_plan(name, cfg, plan)
    run_fluid_plan, run_hybrid_plan = _fluid_executors()
    if cfg.backend == "fluid":
        return run_fluid_plan(name, cfg, plan)
    return run_hybrid_plan(name, cfg, plan, _execute_plan)


def run_cross_rack_incast(cfg: CrossRackIncastConfig) -> ScenarioResult:
    """Execute one cross-rack incast grid point."""
    plan = cfg.plan(RngHub(cfg.seed))
    # Input validation, not a debug check: a plan with non-mouse flows
    # would silently change what this scenario measures, and an assert
    # disappears under ``python -O``.
    if plan.kinds.count(KIND_MOUSE) != len(plan):
        rogue = [flow_id for flow_id, kind in zip(plan.flow_ids, plan.kinds)
                 if kind != KIND_MOUSE]
        raise ValueError(
            f"cross-rack incast plans must contain only mouse-class "
            f"flows; flows {rogue} are not (corrupt plan for {cfg!r})")
    return _run_backend("leafspine_incast", cfg, plan)


def run_elephant_mice(cfg: ElephantMiceGridConfig) -> ScenarioResult:
    """Execute one elephant/mice coexistence grid point."""
    return _run_backend("leafspine_mix", cfg, cfg.plan(RngHub(cfg.seed)))
