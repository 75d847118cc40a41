"""The ``backend`` scenario axis: cache-key identity, sweep/resume
integration, substrate dispatch, and the open-time invariant.

The load-bearing claims, per DESIGN.md's backend-selection section:

- ``backend`` is an ordinary config field, so a sweep can grid over it
  and ``hybrid`` units are *cache-key disjoint* from ``packet`` units —
  the engine can never serve a fluid-approximated payload to a
  packet-fidelity request (Hypothesis property);
- a sweep with a backend axis journals and resumes mid-campaign exactly
  like any other sweep;
- a plan with no steady-state window runs its hybrid on the packet core,
  so pure-incast results agree record-for-record across the two;
- every substrate reports each flow's ``open_ns`` as exactly the
  planned ``FlowSpec.start_ns`` (the FCT clock starts at the plan, not
  at simulator bookkeeping).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import result_to_dict
from repro.experiments.backend_names import BACKENDS
from repro.experiments.engine import (CampaignInterrupted, FaultSpec,
                                      ResultCache, replay_journal)
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.experiments.runner import main as runner_main
from repro.experiments.scenarios import (CrossRackIncastConfig,
                                         ElephantMiceGridConfig,
                                         run_cross_rack_incast,
                                         run_elephant_mice)
from repro.experiments.sweep import (SweepAxis, SweepSpec, compile_units,
                                     run_sweep)
from repro.simcore.random import RngHub

#: Cheap-but-nonempty overrides for property runs.
SMALL_OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "n_senders": st.integers(1, 20),
        "flow_bytes": st.integers(2_000, 100_000),
        "ecn_threshold_packets": st.integers(1, 200),
        "seed": st.integers(0, 1_000),
    })


def doc(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True,
                      default=lambda o: f"<{type(o).__name__}>")


class TestCacheKeyDisjointness:
    @settings(deadline=None, max_examples=100)
    @given(SMALL_OVERRIDES)
    def test_backends_never_share_cache_keys(self, overrides):
        """A hybrid unit can never collide with a packet unit (nor any
        substrate with any other) for identical scenario parameters."""
        spec = SweepSpec(
            name="prop", scenario="leafspine_incast",
            axes=(SweepAxis(name="backend", values=tuple(BACKENDS)),),
            fixed=overrides)
        units = compile_units(spec, scale=0.25, seed=7)
        assert len({u.cache_key() for u in units}) == len(BACKENDS)

    @settings(deadline=None, max_examples=100)
    @given(SMALL_OVERRIDES)
    def test_hybrid_is_disjoint_from_the_implicit_default(self, overrides):
        """An overridden ``backend: hybrid`` also never collides with a
        spec that simply left the (packet) default alone."""
        default = compile_units(SweepSpec(
            name="prop", scenario="leafspine_incast",
            fixed=overrides), scale=0.25, seed=7)[0]
        hybrid = compile_units(SweepSpec(
            name="prop", scenario="leafspine_incast",
            fixed={**overrides, "backend": "hybrid"}),
            scale=0.25, seed=7)[0]
        assert default.cache_key() != hybrid.cache_key()


class TestDispatchAndValidation:
    @pytest.mark.parametrize("config_cls", [
        CrossRackIncastConfig, ElephantMiceGridConfig, IncastSimConfig])
    def test_unknown_backend_rejected(self, config_cls):
        with pytest.raises(ValueError, match="unknown backend"):
            config_cls(backend="quantum")

    def test_fluid_backend_refuses_packet_vantage_points(self):
        with pytest.raises(ValueError, match="packet window"):
            IncastSimConfig(backend="fluid", telemetry=True)

    @pytest.mark.parametrize("config_cls", [
        CrossRackIncastConfig, ElephantMiceGridConfig])
    def test_fluid_leafspine_refuses_telemetry_too(self, config_cls):
        with pytest.raises(ValueError, match="packet window"):
            config_cls(backend="fluid", telemetry=True)

    def test_fluid_sweep_with_telemetry_fails_loudly(self, tmp_path,
                                                     capsys):
        """``--telemetry`` on a fluid grid has nothing to capture: the
        run must fail, not exit 0 with no captures."""
        spec = tmp_path / "fluid.yaml"
        spec.write_text("name: fluid-telemetry\nscenario: leafspine_mix\n"
                        "fixed: {backend: fluid, n_mice: 4}\n",
                        encoding="utf-8")
        code = runner_main(["sweep", "run", str(spec), "--telemetry",
                            "--jobs", "1", "--no-cache"])
        assert code != 0
        assert "packet window" in capsys.readouterr().out

    def test_pure_burst_hybrid_agrees_with_packet_record_for_record(self):
        """No steady-state flows → the hybrid's burst window is the whole
        plan, so it runs the same packet simulation; only the recorded
        provenance (``params.backend``) may differ."""
        packet = run_cross_rack_incast(CrossRackIncastConfig(n_senders=5))
        hybrid = run_cross_rack_incast(
            CrossRackIncastConfig(n_senders=5, backend="hybrid"))
        assert hybrid.fcts == packet.fcts
        assert hybrid.bottleneck == packet.bottleneck
        assert "backend" not in packet.params
        assert hybrid.params["backend"] == "hybrid"
        assert {k: v for k, v in hybrid.params.items()
                if k != "backend"} == packet.params

    def test_fluid_mix_covers_every_planned_flow(self):
        cfg = ElephantMiceGridConfig(n_mice=6, backend="fluid")
        result = run_elephant_mice(cfg)
        planned = set(cfg.plan(RngHub(cfg.seed)).flow_ids)
        reported = {r.flow_id for r in result.fcts.records}
        assert reported <= planned
        assert len(reported) + result.fcts.unfinished == len(planned)


#: sha256 of each cyclic-dumbbell run below, recorded when the fluid side
#: still went through a burst object and the steady-burst analysis had a
#: copy in each substrate.
CYCLIC_PINS = {
    ("fluid", 100):
        "12996391c528b74decca6a8b69aa8517c589a7f153abe625af9e6a8772c7657e",
    ("fluid", 500):
        "a0f0fd6468cdf8c8dac0ac5fb4c4b88e62fc06c0aa050d775314c659682650d5",
    ("hybrid", 100):
        "0d84cc1c290bfc2b2d88c1e5670983458c58a4b5c0cf8514b710d261c34b18ea",
    ("hybrid", 500):
        "e4d05d3f1f2510f66a06303cbc9f0dc2c0a8f4dfa5c8b00c4a48a09dc57ed779",
}


@pytest.mark.parametrize("backend, n_flows", sorted(CYCLIC_PINS))
def test_cyclic_dumbbell_bytes_are_pinned(backend, n_flows):
    """The fluid and hybrid cyclic incasts (4 bursts, seed 0): export
    summary, raw and burst-aligned queue traces and every burst result."""
    result = run_incast_sim(IncastSimConfig(n_flows=n_flows, n_bursts=4,
                                            seed=0, backend=backend))
    digest = hashlib.sha256()
    digest.update(json.dumps(result.export_dict(), sort_keys=True).encode())
    for array in (result.queue_times_ns, result.queue_packets,
                  result.aligned_offsets_ns, result.aligned_queue_packets):
        digest.update(array.tobytes())
    digest.update(repr([dataclasses.asdict(r)
                        for r in result.burst_results]).encode())
    assert digest.hexdigest() == CYCLIC_PINS[backend, n_flows]


class TestOpenTimeInvariant:
    """Satellite: every FCT record's ``open_ns`` is the planned start."""

    def assert_open_times_match_plan(self, cfg, result):
        plan = cfg.plan(RngHub(cfg.seed))
        starts = dict(zip(plan.flow_ids, plan.starts))
        assert result.fcts.records, "invariant is vacuous without records"
        for record in result.fcts.records:
            assert record.open_ns == starts[record.flow_id]

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), n_mice=st.integers(1, 30),
           jitter=st.integers(0, 1_000_000))
    def test_fluid_backend_open_times(self, seed, n_mice, jitter):
        cfg = ElephantMiceGridConfig(n_mice=n_mice, seed=seed,
                                     mouse_jitter_ns=jitter,
                                     backend="fluid")
        self.assert_open_times_match_plan(cfg, run_elephant_mice(cfg))

    @pytest.mark.parametrize("backend", ["packet", "hybrid"])
    def test_simulated_backend_open_times(self, backend):
        cfg = ElephantMiceGridConfig(n_mice=4, elephant_bytes=120_000,
                                     seed=5, backend=backend)
        self.assert_open_times_match_plan(cfg, run_elephant_mice(cfg))


class TestSweepResume:
    SPEC = SweepSpec(
        name="backend-grid", scenario="leafspine_incast",
        axes=(SweepAxis(name="backend", values=("packet", "hybrid")),),
        fixed={"n_senders": 4, "flow_bytes": 20_000})

    def test_mid_sweep_preemption_then_resume(self, tmp_path: Path):
        """A backend-axis sweep preempted after one grid point resumes to
        the byte-identical report, re-dispatching each remaining unit to
        its recorded substrate."""
        baseline, _ = run_sweep(self.SPEC, scale=0.25, seed=7, jobs=1)
        cache = ResultCache(tmp_path / "cache")
        journal = tmp_path / "j.jsonl"
        preempt = FaultSpec(unit="sweep:backend-grid/*", mode="signal",
                            times=1, signum=int(signal.SIGTERM))
        with pytest.raises(CampaignInterrupted):
            run_sweep(self.SPEC, scale=0.25, seed=7, jobs=1, cache=cache,
                      journal_path=journal, faults=[preempt],
                      handle_signals=True, retry_backoff_s=0.0)
        replay = replay_journal(journal)
        assert len(replay.completed) == 1

        resumed, report = run_sweep(
            self.SPEC, scale=0.25, seed=7, jobs=1, cache=cache,
            resume_from=replay, retry_backoff_s=0.0)
        assert report.resume["resumed"] is True
        assert report.resume["completed_carried"] == 1
        assert doc(resumed) == doc(baseline)
