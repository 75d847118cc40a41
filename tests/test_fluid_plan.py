"""A fluid grid point, end to end: flow plan → fluid waves → FCT columns.

Five kinds of check:

- **pins** — sha256s of every unit's export and FCT rows for the
  benchmark's 392-point grid (``bench/specs/engine_grid.yaml``), recorded
  at the commit before the per-flow columns, so the columnar path is held
  to the row-object path's bytes;
- a **differential** against the point as it ran before its plan became
  columns (``tests/fluid_point_reference.py``): drawn fluid and hybrid
  points must give pickle-equal results;
- **oracles** that share no arithmetic with the wave kernel (Hypothesis
  where the input is drawn): every FCT clears its physical floor, a
  wave's flows are all accounted for and never credited more bytes than
  the fluid delivered, and flows that start together finish in size
  order;
- the flow plan's one jitter draw is the scalar draws it replaced;
- **cost** as counts: a fluid unit builds no per-flow or per-wave object.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.analysis import fct
from repro.experiments import backends, sweep
from repro.experiments.engine import seal_payload, unseal_payload
from repro.experiments.scenarios import (CrossRackIncastConfig,
                                         ElephantMiceGridConfig,
                                         ScenarioResult,
                                         run_cross_rack_incast,
                                         run_elephant_mice)
from repro.netsim import fluid
from repro.netsim.fluid import FluidConstants
from repro.netsim.leafspine import LeafSpineConfig
from repro.netsim.packet import TCP_IP_HEADER_BYTES
from repro.simcore.random import RngHub
from repro.tcp.config import TcpConfig
from repro.workloads.mix import (KIND_MOUSE, ElephantMiceConfig, FlowPlan,
                                 FlowSpec, plan_elephant_mice)
from tests import fluid_point_reference as reference

GRID = Path(__file__).resolve().parents[1] / "bench" / "specs" \
    / "engine_grid.yaml"

#: (seed, scale) -> (sha256 of the units' ``export_dict()`` JSON, sha256
#: of their ``repr(fcts.records)``), each over the 392 units in compile
#: order. Recorded with ``FctSet`` still a tuple of ``FlowFct`` rows.
PINS = {
    (0, 1.0): (
        "f861fe9dc61d86c3d4bb1d8fd02af0448e13b47b4a107f13ed40c75c12223bbf",
        "50933a0a8498e53264e0eca045aecd077b6b9ab7c453fedf3127784e20569ae3"),
    (0, 0.25): (
        "a1800814f3d22c354bb1c821df3d3e0fec9237b01d40d4c6dc6d3112b12865eb",
        "238cce0790c59cc6fc030716be4009ef98340a67560a074514efbf7b050e245e"),
    (5, 1.0): (
        "dbe6ac1fcd87b26d9a2b6f093ac219116b35790edbdd00e0960955beecc207e0",
        "cac3bfdc4a945aa87a585295c6d70205d4ca0ee53e53d8ba6c0572aeeba9be61"),
    (5, 0.25): (
        "ec01d84f5eccb3ef19726e27dd946891b041fca25d1f4193d933de28f08ea074",
        "11f7f004748802e0c802eaaf20b5330002de1f7af04cdc48904d95f34876973e"),
}


@pytest.mark.parametrize("seed, scale", sorted(PINS))
def test_engine_grid_units_match_the_row_object_path(seed, scale):
    exports, records = hashlib.sha256(), hashlib.sha256()
    for unit in sweep.compile_units(sweep.load_sweep_file(GRID), scale,
                                    seed):
        payload = sweep.run_unit(unit)
        exports.update(json.dumps(payload.export_dict()).encode())
        records.update(repr(payload.fcts.records).encode())
    assert (exports.hexdigest(), records.hexdigest()) == PINS[seed, scale]


# --------------------------------------------------------------------------
# Differential: the columnar point against the frozen row-object point
# --------------------------------------------------------------------------

#: Flow sizes on both sides of every drawn ``mouse_max_bytes``.
SIZES = st.integers(1_000, 300_000)
#: No jitter, or jitter spreading the mice over several fluid intervals.
JITTERS = st.one_of(st.just(0), st.integers(1, units.msec(4.0)))


@st.composite
def fluid_points(draw):
    """A ``leafspine_mix`` point with 0–4 elephants and 1–64 mice, or a
    ``leafspine_incast`` point with 1–64 senders, on the fluid or hybrid
    backend, with drawn thresholds and capacities."""
    capacity = draw(st.integers(2, 2_000))
    common = dict(
        seed=draw(st.integers(0, 2**32)),
        queue_capacity_packets=capacity,
        ecn_threshold_packets=draw(st.integers(1, capacity)),
        dctcp_g=draw(st.sampled_from((1.0 / 16.0, 0.25, 1.0))),
        mouse_max_bytes=draw(st.sampled_from((20_000, 100_000, 150_000))),
        backend=draw(st.sampled_from(("fluid", "hybrid"))))
    if draw(st.booleans()):
        return CrossRackIncastConfig(
            n_senders=draw(st.integers(1, 64)), flow_bytes=draw(SIZES),
            start_jitter_ns=draw(JITTERS), **common)
    return ElephantMiceGridConfig(
        n_elephants=draw(st.integers(0, 4)), n_mice=draw(st.integers(1, 64)),
        elephant_bytes=draw(SIZES), mouse_bytes=draw(SIZES),
        warmup_ns=draw(st.integers(0, units.msec(5.0))),
        mouse_jitter_ns=draw(JITTERS), **common)


def stub_packet_run(name, cfg, flows):
    """A stand-in packet executor for the hybrid burst window: every flow
    closes after its size in ns plus the window's threshold, and the
    bottleneck echoes the window's capacity, so the result depends on
    everything the steady window hands over. Takes a ``FlowPlan`` or the
    reference's list of rows."""
    rows = flows.rows if isinstance(flows, FlowPlan) else flows
    rows = sorted(rows, key=lambda f: (f.start_ns, f.flow_id))
    return ScenarioResult(
        scenario=name, params={}, bottleneck={
            "max_len_packets": cfg.queue_capacity_packets,
            "marked_packets": cfg.ecn_threshold_packets,
            "dropped_packets": len(rows), "enqueued_packets": 7},
        fcts=fct.FctSet(
            tuple(f.flow_id for f in rows), tuple(f.src_rank for f in rows),
            tuple(f.start_ns for f in rows),
            tuple(f.start_ns + f.size_bytes + cfg.ecn_threshold_packets
                  for f in rows),
            tuple(f.size_bytes for f in rows), (None,) * len(rows),
            tuple(fct.MOUSE if f.size_bytes <= cfg.mouse_max_bytes
                  else fct.ELEPHANT for f in rows),
            mouse_max_bytes=cfg.mouse_max_bytes))


def columnar_point(cfg):
    """The production path's result for ``cfg``."""
    if cfg.backend == "hybrid":
        name = ("leafspine_incast" if isinstance(cfg, CrossRackIncastConfig)
                else "leafspine_mix")
        return backends.run_hybrid_plan(name, cfg, cfg.plan(RngHub(cfg.seed)),
                                        stub_packet_run)
    if isinstance(cfg, CrossRackIncastConfig):
        return run_cross_rack_incast(cfg)
    return run_elephant_mice(cfg)


@settings(deadline=None)
@given(fluid_points())
@example(ElephantMiceGridConfig(n_mice=5, mouse_jitter_ns=0, backend="fluid"))
@example(CrossRackIncastConfig(n_senders=20, start_jitter_ns=0,
                               backend="fluid"))
def test_the_columnar_point_is_the_row_object_point(cfg):
    """Pickle-equal results, so equal sealed payload bytes: the plan, the
    waves, processor sharing, the FCT columns and the bottleneck totals,
    and on ``hybrid`` the steady window and what it hands the burst
    window. A close instant is a float truncated to whole ns, so a float
    operation done in another order shows only where the exact instant is
    a whole ns: the two explicit examples are such points, an equal-size
    synchronized wave of 5 or 20 flows delivered in one interval, whose
    closes fall on fifths of it."""
    expected = reference.reference_point(cfg, stub_packet_run)
    assert pickle.dumps(columnar_point(cfg)) == pickle.dumps(expected)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(0.0, 2e6), max_size=24))
def test_byte_totals_are_numpys_sums(column):
    """The wave's byte totals are ``numpy``'s pairwise sums, bit for bit,
    whether summed here (under eight intervals) or by numpy."""
    trace = fluid.FluidColumns(column, column[::-1], [], column, [])
    expected = np.array((column, column[::-1], column)).sum(axis=1)
    assert backends._byte_totals(trace) == tuple(expected.tolist())


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------

MSS = TcpConfig().mss_bytes
FABRIC = LeafSpineConfig()


def wire_bytes(size: int) -> int:
    """On-the-wire bytes: one TCP/IP header per MSS-sized segment."""
    return size + max(1, -(-size // MSS)) * TCP_IP_HEADER_BYTES


def floor_ns(size: int) -> float:
    """One base RTT across the fabric (eight propagation legs) plus the
    flow's own serialization at the host line rate."""
    return (8 * FABRIC.link_prop_delay_ns
            + wire_bytes(size) * 8e9 / FABRIC.host_rate_bps)


@st.composite
def waves(draw):
    """One fluid wave: flows starting within one fluid interval (some at
    the same instant), of mixed sizes, on a drawn ECN threshold."""
    interval = fluid.FluidConfig().interval_ns
    base = draw(st.integers(0, 5)) * interval
    offsets = st.sampled_from((0, 1, 40_000, 500_000, interval - 1))
    n = draw(st.integers(1, 12))
    specs = [FlowSpec(flow_id=i, kind=KIND_MOUSE, src_rank=8 + i,
                      dst_rank=0,
                      size_bytes=draw(st.integers(1, 400_000)),
                      start_ns=base + draw(offsets))
             for i in range(n)]
    specs.sort(key=lambda f: (f.start_ns, f.flow_id))
    cfg = ElephantMiceGridConfig(
        ecn_threshold_packets=draw(st.integers(1, 200)), backend="fluid")
    return specs, cfg


def run_wave(specs, cfg):
    """The wave kernel's FCT set and ``(unfinished, queue_frac,
    delivered, marked, dropped)`` for one wave of ``specs``."""
    fluid_cfg = backends._leafspine_fluid_config(cfg, MSS)
    rows = sorted(specs, key=lambda s: s.flow_id)
    plan = FlowPlan(*(tuple(column) for column in zip(*(
        (s.flow_id, s.kind, s.src_rank, s.dst_rank, s.size_bytes,
         s.start_ns) for s in rows))))
    order = backends._StartOrder.of(plan, fluid_cfg, MSS)
    closes: list = []
    out = backends._fluid_wave(order, 0, len(plan), fluid_cfg,
                               FluidConstants.of(fluid_cfg), closes)
    fcts = backends._fct_set(plan, order, closes, cfg.mouse_max_bytes)
    return fcts, (fcts.unfinished, *out)


class TestWaveOracles:
    @settings(deadline=None, max_examples=200)
    @given(waves())
    def test_every_fct_clears_its_physical_floor(self, wave):
        specs, cfg = wave
        fcts, _ = run_wave(specs, cfg)
        size = {s.flow_id: s.size_bytes for s in specs}
        for flow_id, opened, closed in zip(fcts.flow_ids, fcts.open_ns,
                                           fcts.close_ns):
            # int() truncates the serialization term: 1 ns of slack.
            assert closed - opened >= floor_ns(size[flow_id]) - 1

    @settings(deadline=None, max_examples=200)
    @given(waves())
    def test_flows_are_accounted_and_bytes_conserved(self, wave):
        specs, cfg = wave
        fcts, (unfinished, _queue, delivered, _marked, _dropped) = \
            run_wave(specs, cfg)
        assert len(fcts) + unfinished == len(specs)
        size = {s.flow_id: s.size_bytes for s in specs}
        credited = sum(wire_bytes(size[f]) for f in fcts.flow_ids)
        assert credited <= delivered + 1
        # Rows come out in the canonical order, as the plan had them.
        assert list(fcts.flow_ids) == [s.flow_id for s in specs
                                       if s.flow_id in fcts.flow_ids]

    @settings(deadline=None, max_examples=200)
    @given(waves())
    def test_flows_starting_together_finish_in_size_order(self, wave):
        specs, cfg = wave
        fcts, _ = run_wave(specs, cfg)
        close = dict(zip(fcts.flow_ids, fcts.close_ns))
        for small in specs:
            for large in specs:
                if (small.start_ns != large.start_ns
                        or small.size_bytes >= large.size_bytes
                        or large.flow_id not in close):
                    continue
                assert small.flow_id in close
                assert close[small.flow_id] <= close[large.flow_id]

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), n_mice=st.integers(1, 24),
           k=st.integers(1, 200), mouse_bytes=st.integers(2_000, 60_000))
    def test_whole_grid_points_clear_the_floor(self, seed, n_mice, k,
                                               mouse_bytes):
        cfg = ElephantMiceGridConfig(seed=seed, n_mice=n_mice,
                                     ecn_threshold_packets=k,
                                     mouse_bytes=mouse_bytes,
                                     backend="fluid")
        result = run_elephant_mice(cfg)
        plan = cfg.plan(RngHub(seed))
        size = dict(zip(plan.flow_ids, plan.sizes))
        assert len(result.fcts) + result.fcts.unfinished == len(size)
        for record in result.fcts.records:
            assert record.fct_ns >= floor_ns(size[record.flow_id]) - 1


# --------------------------------------------------------------------------
# The flow plan's jitter draw
# --------------------------------------------------------------------------

@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 64),
       high=st.integers(1, units.msec(5.0)))
def test_one_vector_draw_is_the_scalar_draws(seed, n, high):
    vector, scalar = RngHub(seed).stream("s"), RngHub(seed).stream("s")
    drawn = vector.uniform(0, high, size=n).tolist()
    assert drawn == [scalar.uniform(0, high) for _ in range(n)]
    assert vector.bit_generator.state == scalar.bit_generator.state


def test_plan_keeps_the_jitter_streams_position():
    cfg = ElephantMiceConfig(n_mice=16)
    hub = RngHub(3)
    plan = plan_elephant_mice(cfg, hub)
    replay = RngHub(3).stream("mix/mouse_jitter")
    starts = [cfg.warmup_ns + int(replay.uniform(0, cfg.mouse_jitter_ns))
              for _ in range(cfg.n_mice)]
    assert [f.start_ns for f in plan.rows if f.kind == KIND_MOUSE] == starts
    assert hub.stream("mix/mouse_jitter").bit_generator.state \
        == replay.bit_generator.state


# --------------------------------------------------------------------------
# Cost
# --------------------------------------------------------------------------

def test_a_fluid_unit_builds_no_per_flow_or_per_wave_object(monkeypatch):
    """Flow rows are what a grid point used to be made of; the columns
    path constructs none, from the plan through the sealed payload to its
    export."""
    counts = {"FlowFct": 0}

    def counting(name, init):
        def wrapped(self, *args, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(fct.FlowFct, "__init__",
                        counting("FlowFct", fct.FlowFct.__init__))
    units_ = sweep.compile_units(sweep.load_sweep_file(GRID), 1.0, 3)[::37]
    for unit in units_:
        payload = unseal_payload(seal_payload(sweep.run_unit(unit)))
        assert len(payload.fcts) > 0
        payload.export_dict()
    assert counts == {"FlowFct": 0}
