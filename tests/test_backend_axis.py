"""The ``backend`` scenario axis: cache-key identity, sweep/resume
integration, substrate dispatch, and the open-time invariant.

The load-bearing claims, per DESIGN.md's backend-selection section:

- ``backend`` is an ordinary config field, so a sweep can grid over it
  and ``fluid`` units are *cache-key disjoint* from ``packet`` units —
  the engine can never serve a fluid-approximated payload to a
  packet-fidelity request (Hypothesis property);
- a sweep with a backend axis journals and resumes mid-campaign exactly
  like any other sweep;
- every substrate reports each flow's ``open_ns`` as exactly the
  planned ``FlowSpec.start_ns`` (the FCT clock starts at the plan, not
  at simulator bookkeeping).
"""

from __future__ import annotations

import json
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import result_to_dict
from repro.experiments.engine import (CampaignInterrupted, FaultSpec,
                                      ResultCache, replay_journal)
from repro.experiments.environment import IncastSimConfig
from repro.experiments.runner import main as runner_main
from repro.experiments.scenarios import (BACKENDS, CrossRackIncastConfig,
                                         ElephantMiceGridConfig,
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
        """A fluid unit can never collide with a packet unit for
        identical scenario parameters."""
        spec = SweepSpec(
            name="prop", scenario="leafspine_incast",
            axes=(SweepAxis(name="backend", values=tuple(BACKENDS)),),
            fixed=overrides)
        units = compile_units(spec, scale=0.25, seed=7)
        assert len({u.cache_key() for u in units}) == len(BACKENDS)


class TestDispatchAndValidation:
    @pytest.mark.parametrize("config_cls", [
        CrossRackIncastConfig, ElephantMiceGridConfig])
    def test_unknown_backend_rejected(self, config_cls):
        with pytest.raises(ValueError, match="unknown backend"):
            config_cls(backend="quantum")

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

    def test_fluid_mix_covers_every_planned_flow(self):
        cfg = ElephantMiceGridConfig(n_mice=6, backend="fluid")
        result = run_elephant_mice(cfg)
        planned = set(cfg.plan(RngHub(cfg.seed)).flow_ids)
        reported = {r.flow_id for r in result.fcts.records}
        assert reported <= planned
        assert len(reported) + result.fcts.unfinished == len(planned)


class TestRetiredBackends:
    """``hybrid`` and the dumbbell's backend field are gone: a config, a
    spec or a command line that still names them must fail loudly, never
    run on some other substrate."""

    @pytest.mark.parametrize("config_cls", [
        CrossRackIncastConfig, ElephantMiceGridConfig])
    def test_hybrid_is_an_unknown_backend(self, config_cls):
        assert BACKENDS == ("packet", "fluid")
        with pytest.raises(ValueError, match=r"unknown backend 'hybrid'; "
                           r"choose from \['fluid', 'packet'\]"):
            config_cls(backend="hybrid")

    @pytest.mark.parametrize("scenario", ["leafspine_incast",
                                          "leafspine_mix"])
    def test_hybrid_sweep_fails_loudly(self, scenario, tmp_path, capsys):
        spec = tmp_path / "hybrid.yaml"
        spec.write_text(f"name: hybrid\nscenario: {scenario}\n"
                        "fixed: {backend: hybrid}\n", encoding="utf-8")
        code = runner_main(["sweep", "run", str(spec), "--scale", "0.05",
                            "--jobs", "1", "--no-cache"])
        assert code != 0
        assert "unknown backend 'hybrid'" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["packet", "fluid", "hybrid"])
    def test_dumbbell_spec_naming_a_backend_is_a_usage_error(
            self, backend, tmp_path, capsys):
        """Even ``packet``, the one substrate the dumbbell runs on: the
        field is gone, so a spec that sets it is stale."""
        spec = tmp_path / "dumbbell.yaml"
        spec.write_text("name: dumbbell\nscenario: dumbbell_incast\n"
                        f"fixed: {{backend: {backend}, n_flows: 20}}\n",
                        encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["sweep", "run", str(spec), "--scale", "0.05",
                         "--jobs", "1", "--no-cache"])
        assert excinfo.value.code == 2
        assert ("'backend' is not a sweepable field of 'dumbbell_incast'"
                in capsys.readouterr().err)
        with pytest.raises(TypeError, match="backend"):
            IncastSimConfig(n_flows=20, backend=backend)

    def test_crossval_takes_no_hybrid_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["-e", "crossval", "--hybrid"])
        assert excinfo.value.code == 2
        assert ("unrecognized arguments: --hybrid"
                in capsys.readouterr().err)


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

    @pytest.mark.parametrize("backend", ["packet"])
    def test_simulated_backend_open_times(self, backend):
        cfg = ElephantMiceGridConfig(n_mice=4, elephant_bytes=120_000,
                                     seed=5, backend=backend)
        self.assert_open_times_match_plan(cfg, run_elephant_mice(cfg))


class TestSweepResume:
    SPEC = SweepSpec(
        name="backend-grid", scenario="leafspine_incast",
        axes=(SweepAxis(name="backend", values=("packet", "fluid")),),
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
