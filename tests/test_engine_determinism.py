"""Engine equivalence: parallel == serial, cache == cold.

The engine's contract is that ``--jobs N`` and the on-disk cache are pure
optimizations: the merged ``ExperimentResult`` payloads (as JSON
documents) must be identical along every path.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import repro
from repro.analysis.export import result_to_dict
from repro.experiments import fig5, fig6, table1
from repro.experiments.engine import (EXPERIMENT_MODULES, ResultCache,
                                      run_experiments)
from repro.experiments.engine.core import DEFAULT_TELEMETRY_INTERVAL_NS
from repro.experiments.engine.report import (SOURCE_CACHE, SOURCE_RUN,
                                             SOURCE_SHARED)
from repro.experiments.sweep import compile_units, run_sweep
from repro.experiments.verdict import VerdictExperiment, VerdictGrid
from repro.tools.golden import golden_sweep_specs

SCALE = 0.05
SEED = 11


def doc(result) -> str:
    """Canonical JSON form of a result for cross-path comparison."""
    return json.dumps(result_to_dict(result), sort_keys=True,
                      allow_nan=False,
                      default=lambda o: f"<{type(o).__name__}>")


class TestJobsEquivalence:
    def test_jobs4_matches_jobs1(self):
        serial, serial_report = run_experiments(["fig6"], scale=SCALE,
                                                seed=SEED, jobs=1)
        assert serial_report.jobs == 1
        assert serial_report.executed == len(fig6.FLOW_COUNTS)
        assert serial_report.total_events > 0  # packet sims fire events
        parallel, report = run_experiments(["fig6"], scale=SCALE,
                                           seed=SEED, jobs=4)
        assert doc(parallel["fig6"]) == doc(serial["fig6"])
        # More than one worker process actually participated.
        assert report.workers_used >= 2

    def test_campaign_units_shared_across_experiments(self):
        """fig2 and fig4 decompose into the same daily-campaign units, so
        a joint run executes each unit once and both results still match
        their solo runs."""
        solo2, _ = run_experiments(["fig2"], scale=SCALE, seed=SEED, jobs=1)
        solo4, _ = run_experiments(["fig4"], scale=SCALE, seed=SEED, jobs=1)
        joint, report = run_experiments(["fig2", "fig4"], scale=SCALE,
                                        seed=SEED, jobs=2)
        assert doc(joint["fig2"]) == doc(solo2["fig2"])
        assert doc(joint["fig4"]) == doc(solo4["fig4"])
        assert report.shared == report.n_units // 2
        assert report.executed == report.n_units // 2


class TestCacheEquivalence:
    def test_warm_cache_replays_cold_run(self, tmp_path: Path):
        cache_dir = tmp_path / "cache"
        cold, cold_report = run_experiments(
            ["fig6"], scale=SCALE, seed=SEED, jobs=2,
            cache=ResultCache(directory=cache_dir))
        warm, warm_report = run_experiments(
            ["fig6"], scale=SCALE, seed=SEED, jobs=2,
            cache=ResultCache(directory=cache_dir))
        assert doc(warm["fig6"]) == doc(cold["fig6"])
        assert cold_report.cache_hits == 0
        assert cold_report.executed == warm_report.n_units
        assert warm_report.cache_hits == warm_report.n_units
        assert warm_report.executed == 0

    def test_unit_sources_are_labelled(self, tmp_path: Path):
        cache = ResultCache(directory=tmp_path / "cache")
        _, cold = run_experiments(["fig1"], scale=SCALE, seed=SEED,
                                  jobs=1, cache=cache)
        _, warm = run_experiments(["fig1"], scale=SCALE, seed=SEED,
                                  jobs=1, cache=cache)
        assert [u.source for u in cold.units] == [SOURCE_RUN]
        assert [u.source for u in warm.units] == [SOURCE_CACHE]

    def test_seed_and_scale_partition_the_cache(self, tmp_path: Path):
        cache = ResultCache(directory=tmp_path / "cache")
        run_experiments(["fig1"], scale=SCALE, seed=SEED, jobs=1,
                        cache=cache)
        _, other_seed = run_experiments(["fig1"], scale=SCALE,
                                        seed=SEED + 1, jobs=1, cache=cache)
        _, other_scale = run_experiments(["fig1"], scale=SCALE * 2,
                                         seed=SEED, jobs=1, cache=cache)
        assert other_seed.cache_hits == 0
        assert other_scale.cache_hits == 0


def _refuse_unpickle():
    raise AssertionError("a payload sealed under another version was "
                         "unpickled")


class SealedUnderAnotherVersion:
    """Stands in for a payload whose classes have since changed shape:
    storing it is fine, loading it is the bug."""

    def __reduce__(self):
        return _refuse_unpickle, ()


class TestVersionBumpRetiresFleetPayloads:
    """1.2.1 changed the shape of ``TraceSummary`` inside every fleet
    unit's payload; what 1.2.0 left in a cache directory must be a miss
    that recomputes, never an unpickle into the new class."""

    def test_entry_sealed_under_1_2_0_is_a_miss(self, tmp_path: Path,
                                                monkeypatch):
        assert repro.__version__ != "1.2.0"
        cache = ResultCache(directory=tmp_path / "cache")
        with monkeypatch.context() as old:
            old.setattr(repro, "__version__", "1.2.0")
            old_keys = {unit.cache_key()
                        for unit in table1.work_units(SCALE, SEED)}
            for key in old_keys:
                assert cache.put(key, SealedUnderAnotherVersion())
            old_dir = cache.version_dir
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys) == 5

        units = table1.work_units(SCALE, SEED)
        assert all(unit.fn.startswith("repro.experiments.engine.fleet:")
                   for unit in units)
        assert not {unit.cache_key() for unit in units} & old_keys
        assert cache.version_dir != old_dir
        fresh, _ = run_experiments(["table1"], scale=SCALE, seed=SEED,
                                   jobs=1)
        served, report = run_experiments(["table1"], scale=SCALE, seed=SEED,
                                         jobs=1, cache=cache)
        assert (report.cache_hits, report.executed) == (0, len(units))
        assert doc(served["table1"]) == doc(fresh["table1"])
        # The old entries were left alone, not read.
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys)
        _, warm = run_experiments(["table1"], scale=SCALE, seed=SEED,
                                  jobs=1, cache=cache)
        assert (warm.cache_hits, warm.executed) == (len(units), 0)


class TestVersionBumpRetiresSweepPayloads:
    """1.2.2 changed the shape of ``FctSet`` inside every sweep unit's
    payload (per-flow columns, not ``FlowFct`` rows); what 1.2.1 left in
    a cache directory must be a miss that recomputes, never an unpickle
    into the new class."""

    def test_entry_sealed_under_1_2_1_is_a_miss(self, tmp_path: Path,
                                                monkeypatch):
        spec = golden_sweep_specs()["sweep_backends"]  # fluid
        assert repro.__version__ != "1.2.1"
        cache = ResultCache(directory=tmp_path / "cache")
        with monkeypatch.context() as old:
            old.setattr(repro, "__version__", "1.2.1")
            old_keys = {unit.cache_key()
                        for unit in compile_units(spec, SCALE, SEED)}
            for key in old_keys:
                assert cache.put(key, SealedUnderAnotherVersion())
            old_dir = cache.version_dir
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys) == 2

        units = compile_units(spec, SCALE, SEED)
        assert not {unit.cache_key() for unit in units} & old_keys
        assert cache.version_dir != old_dir
        fresh, _ = run_sweep(spec, scale=SCALE, seed=SEED, jobs=1)
        served, report = run_sweep(spec, scale=SCALE, seed=SEED, jobs=1,
                                   cache=cache)
        assert (report.cache_hits, report.executed) == (0, len(units))
        assert doc(served) == doc(fresh)
        # The old entries were left alone, not read.
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys)
        _, warm = run_sweep(spec, scale=SCALE, seed=SEED, jobs=1,
                            cache=cache)
        assert (warm.cache_hits, warm.executed) == (len(units), 0)


class TestVersionBumpRetiresTelemetryPayloads:
    """1.2.3 changed the shape of ``TelemetryCapture`` inside every
    ``--telemetry`` unit's payload (event columns, not ``FlowEvent``
    rows); what 1.2.2 left in a cache directory must be a miss that
    recomputes, never an unpickle into the new class."""

    @staticmethod
    def telemetry_units():
        # What the engine plans under --telemetry (default interval).
        tele = {"interval_ns": DEFAULT_TELEMETRY_INTERVAL_NS}
        return [dataclasses.replace(unit,
                                    params={**unit.params, "telemetry": tele})
                for unit in fig5.work_units(SCALE, SEED)]

    def test_entry_sealed_under_1_2_2_is_a_miss(self, tmp_path: Path,
                                                monkeypatch):
        assert repro.__version__ != "1.2.2"
        cache = ResultCache(directory=tmp_path / "cache")
        with monkeypatch.context() as old:
            old.setattr(repro, "__version__", "1.2.2")
            old_keys = {unit.cache_key() for unit in self.telemetry_units()}
            for key in old_keys:
                assert cache.put(key, SealedUnderAnotherVersion())
            old_dir = cache.version_dir
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys) == 3

        units = self.telemetry_units()
        assert not {unit.cache_key() for unit in units} & old_keys
        _, fresh = run_experiments(["fig5"], scale=SCALE, seed=SEED, jobs=1,
                                   telemetry=True)
        _, served = run_experiments(["fig5"], scale=SCALE, seed=SEED,
                                    jobs=1, cache=cache, telemetry=True)
        assert (served.cache_hits, served.executed) == (0, len(units))
        # The planned keys are the ones the engine used, so the poisoned
        # entries sit exactly where a 1.2.2 engine would have read them.
        assert all(cache.path_for(unit.cache_key()).exists()
                   for unit in units)
        assert served.telemetry == fresh.telemetry and fresh.telemetry
        # The old entries were left alone, not read.
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys)
        # The new layout round-trips through the cache.
        _, warm = run_experiments(["fig5"], scale=SCALE, seed=SEED, jobs=1,
                                  cache=cache, telemetry=True)
        assert (warm.cache_hits, warm.executed) == (len(units), 0)
        assert warm.telemetry == fresh.telemetry


class TestVersionBumpRetiresIctcpPayloads:
    """1.2.4 changed what an ``ictcp`` run computes under the same params
    (the throttle starts over every connection registered before
    traffic); what 1.2.3 left in a cache directory for an ``ictcp`` unit
    must be a miss that recomputes, never a pre-fix result served warm."""

    GRID = VerdictGrid(schemes=("ictcp",), flow_counts=(40,),
                       burst_ms=(2.0,), mix=False)

    def run(self, **engine_kwargs):
        results, report = run_experiments(
            ["verdict"], scale=SCALE, seed=SEED, jobs=1,
            extra_modules={"verdict": VerdictExperiment(self.GRID)},
            **engine_kwargs)
        return results["verdict"], report

    def test_entry_sealed_under_1_2_3_is_a_miss(self, tmp_path: Path,
                                                monkeypatch):
        assert repro.__version__ != "1.2.3"
        experiment = VerdictExperiment(self.GRID)
        cache = ResultCache(directory=tmp_path / "cache")
        with monkeypatch.context() as old:
            old.setattr(repro, "__version__", "1.2.3")
            old_keys = {unit.cache_key()
                        for unit in experiment.work_units(SCALE, SEED)}
            for key in old_keys:
                assert cache.put(key, SealedUnderAnotherVersion())
            old_dir = cache.version_dir
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys) == 1

        units = experiment.work_units(SCALE, SEED)
        assert [unit.params["overrides"]["scheme"] for unit in units] == [
            "ictcp"]
        assert not {unit.cache_key() for unit in units} & old_keys
        fresh, _ = self.run()
        served, report = self.run(cache=cache)
        assert (report.cache_hits, report.executed) == (0, len(units))
        assert doc(served) == doc(fresh)
        # The old entries were left alone, not read.
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys)
        _, warm = self.run(cache=cache)
        assert (warm.cache_hits, warm.executed) == (len(units), 0)


class TestVersionBumpRetiresDumbbellPayloads:
    """1.2.5 removed ``IncastSimConfig.backend``, but a ``dumbbell_incast``
    unit's params never held the default backend, so its cache key moves
    only with the version: what 1.2.4 left in a cache directory must be a
    miss that recomputes, never an unpickle of a config carrying a stale
    ``backend`` attribute."""

    def test_entry_sealed_under_1_2_4_is_a_miss(self, tmp_path: Path,
                                                monkeypatch):
        assert repro.__version__ != "1.2.4"
        cache = ResultCache(directory=tmp_path / "cache")
        with monkeypatch.context() as old:
            old.setattr(repro, "__version__", "1.2.4")
            old_keys = {unit.cache_key()
                        for unit in fig6.work_units(SCALE, SEED)}
            for key in old_keys:
                assert cache.put(key, SealedUnderAnotherVersion())
            old_dir = cache.version_dir
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys) == 4

        units = fig6.work_units(SCALE, SEED)
        assert all("backend" not in unit.params["overrides"]
                   for unit in units)
        assert not {unit.cache_key() for unit in units} & old_keys
        fresh, _ = run_experiments(["fig6"], scale=SCALE, seed=SEED, jobs=1)
        served, report = run_experiments(["fig6"], scale=SCALE, seed=SEED,
                                         jobs=1, cache=cache)
        assert (report.cache_hits, report.executed) == (0, len(units))
        assert doc(served["fig6"]) == doc(fresh["fig6"])
        # The old entries were left alone, not read.
        assert len(list(old_dir.rglob("*.pkl"))) == len(old_keys)
        _, warm = run_experiments(["fig6"], scale=SCALE, seed=SEED, jobs=1,
                                  cache=cache)
        assert (warm.cache_hits, warm.executed) == (len(units), 0)


class TestEngineValidation:
    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiments"):
            run_experiments(["nope"], scale=SCALE, seed=SEED, jobs=1)

    def test_bad_jobs_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            run_experiments(["fig1"], scale=SCALE, seed=SEED, jobs=0)

    def test_every_experiment_plans_units(self):
        for name, module in EXPERIMENT_MODULES.items():
            units = module.work_units(SCALE, SEED)
            assert units, f"{name} planned no work units"
            ids = [(u.experiment, u.unit_id) for u in units]
            assert len(ids) == len(set(ids)), f"{name} has duplicate ids"
            for unit in units:
                assert unit.scale == SCALE and unit.seed == SEED
                assert callable(unit.resolve_fn())
