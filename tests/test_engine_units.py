"""Unit tests for the engine building blocks: WorkUnit, ResultCache,
RunReport, and the campaign's resolve phase."""

from __future__ import annotations

import gc
import os
import pickle
from pathlib import Path

import pytest

import repro
from repro.experiments.engine.cache import ResultCache, default_cache_dir
from repro.experiments.engine.core import (ExecutorBackend, _Campaign,
                                           run_experiments)
from repro.experiments.engine.journal import JournalReplay, campaign_identity
from repro.experiments.engine.report import (SOURCE_CACHE, SOURCE_FAILED,
                                             SOURCE_RUN, SOURCE_SHARED,
                                             FailureRecord, RunReport,
                                             UnitReport)
from repro.experiments.engine.spec import WorkUnit


def unit(**overrides) -> WorkUnit:
    fields = dict(experiment="fig6", unit_id="flows:50",
                  fn="repro.experiments.sweep:run_unit",
                  params={"n_flows": 50}, scale=0.1, seed=3)
    fields.update(overrides)
    return WorkUnit(**fields)


class TestWorkUnit:
    def test_cache_key_is_stable(self):
        assert unit().cache_key() == unit().cache_key()

    def test_cache_key_ignores_experiment_name(self):
        """fig2/fig4 share campaign units: the key covers only what the
        payload depends on (fn, params, scale, seed, version)."""
        assert (unit(experiment="a").cache_key()
                == unit(experiment="b").cache_key())

    @pytest.mark.parametrize("override", [
        {"fn": "repro.experiments.ablations:run_unit"},
        {"params": {"n_flows": 100}},
        {"scale": 0.2},
        {"seed": 4},
    ])
    def test_cache_key_covers_payload_inputs(self, override):
        assert unit().cache_key() != unit(**override).cache_key()

    def test_cache_key_ignores_cost_hint(self):
        """Scheduling hints may be retuned freely without invalidating
        cached payloads."""
        assert (unit(cost_hint=40.0).cache_key()
                == unit(cost_hint=1.0).cache_key())

    def test_cache_key_folds_in_version(self, monkeypatch):
        before = unit().cache_key()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert unit().cache_key() != before

    def test_rejects_fn_without_colon(self):
        with pytest.raises(ValueError, match="module:function"):
            unit(fn="repro.experiments.sweep.run_unit")

    def test_rejects_unjsonable_params(self):
        with pytest.raises(TypeError):
            unit(params={"bad": object()})

    def test_resolve_fn(self):
        from repro.experiments import sweep
        assert unit().resolve_fn() is sweep.run_unit

    def test_label(self):
        assert unit().label == "fig6/flows:50"

    def test_identity_is_exactly_what_the_key_hashes(self):
        identity = unit().identity()
        assert set(identity) == {"fn", "params", "scale", "seed", "version"}
        assert identity["version"] == repro.__version__


class TestResultCache:
    def test_miss_then_hit(self, tmp_path: Path):
        cache = ResultCache(directory=tmp_path)
        assert cache.get("ab" + "0" * 62) is None
        cache.put("ab" + "0" * 62, {"x": 1})
        assert cache.get("ab" + "0" * 62) == {"x": 1}

    def test_disabled_cache_never_stores(self, tmp_path: Path):
        cache = ResultCache(directory=tmp_path, enabled=False)
        cache.put("ab" + "0" * 62, {"x": 1})
        assert cache.get("ab" + "0" * 62) is None
        assert not any(tmp_path.rglob("*.pkl"))

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path: Path):
        cache = ResultCache(directory=tmp_path)
        key = "cd" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"definitely not a pickle")
        assert cache.get(key) is None
        assert not path.exists()

    def test_entries_partitioned_by_version(self, tmp_path: Path,
                                            monkeypatch):
        cache = ResultCache(directory=tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, 42)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert ResultCache(directory=tmp_path).get(key) is None

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"

    @staticmethod
    def _plant_stale_tmp(cache: ResultCache, key: str,
                         pid: int = 999_999_999) -> Path:
        # The spill-file name put() would use, from a writer PID that is
        # guaranteed dead (beyond any real pid_max).
        cache.spill_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache.spill_dir / f".{key}.pkl.{pid}.tmp"
        tmp.write_bytes(b"interrupted write")
        return tmp

    def test_sweep_stale_removes_dead_writers_tmp(self, tmp_path: Path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aa" + "0" * 62, 1)
        tmp = self._plant_stale_tmp(cache, "bb" + "0" * 62)
        assert cache.sweep_stale() == 1
        assert not tmp.exists()
        assert cache.get("aa" + "0" * 62) == 1  # real entries untouched

    def test_sweep_stale_keeps_live_writers_tmp(self, tmp_path: Path):
        cache = ResultCache(directory=tmp_path)
        tmp = self._plant_stale_tmp(cache, "cc" + "0" * 62, pid=os.getpid())
        assert cache.sweep_stale() == 0
        assert tmp.exists()

    def test_sweep_stale_force_reaps_known_dead_pids(self, tmp_path: Path):
        """After killing a worker pool the engine passes the reaped PIDs
        explicitly, so their spill files go even if the PID looks alive
        (reused by an unrelated process)."""
        cache = ResultCache(directory=tmp_path)
        tmp = self._plant_stale_tmp(cache, "dd" + "0" * 62, pid=os.getpid())
        assert cache.sweep_stale(pids=[os.getpid()]) == 1
        assert not tmp.exists()

    def test_sweep_stale_noop_when_disabled_or_missing(self, tmp_path: Path):
        disabled = ResultCache(directory=tmp_path, enabled=False)
        assert disabled.sweep_stale() == 0
        missing = ResultCache(directory=tmp_path / "never_created")
        assert missing.sweep_stale() == 0

    def test_payloads_roundtrip_pickle(self, tmp_path: Path):
        cache = ResultCache(directory=tmp_path)
        payload = {"rows": [[1, "x", 2.5]], "arr": (1, 2)}
        cache.put("1a" + "0" * 62, payload)
        assert pickle.loads(pickle.dumps(payload)) == cache.get(
            "1a" + "0" * 62)


class TestRunReport:
    def make_report(self) -> RunReport:
        return RunReport(jobs=4, cache_enabled=True, cache_dir="/tmp/c",
                         wall_s=2.0, units=[
            UnitReport("fig5", "a", SOURCE_RUN, 1.5, 100, "pid:1"),
            UnitReport("fig5", "b", SOURCE_RUN, 2.5, 200, "pid:2"),
            UnitReport("fig4", "c", SOURCE_CACHE, 0.0, 0, "cache"),
            UnitReport("fig4", "d", SOURCE_SHARED, 0.0, 0, "shared"),
        ])

    def test_totals(self):
        report = self.make_report()
        assert report.n_units == 4
        assert report.executed == 2
        assert report.cache_hits == 1
        assert report.shared == 1
        assert report.total_events == 300
        assert report.busy_s == 4.0
        assert report.workers_used == 2
        assert report.parallel_speedup == 2.0

    def test_render_mentions_everything(self):
        text = self.make_report().render()
        assert "fig5/b" in text          # slowest unit first
        assert "cache hits" in text
        assert "speedup" in text

    def test_to_dict_is_json_ready(self):
        import json
        doc = self.make_report().to_dict()
        json.dumps(doc)
        assert doc["executed"] == 2
        assert len(doc["units"]) == 4
        # The failure-semantics fields are always present (stable shape).
        assert doc["failed"] == 0
        assert doc["retries"] == 0
        assert doc["failures"] == []
        assert doc["failed_experiments"] == []
        assert doc["pool_respawns"] == 0

    def make_failed_report(self) -> RunReport:
        failed = UnitReport("fig6", "flows:200", SOURCE_FAILED,
                            attempts=3, error="FaultInjected: boom")
        shared = UnitReport("fig4", "service:web", SOURCE_FAILED,
                            error="shared unit fig2/service:web failed")
        ok = UnitReport("fig6", "flows:50", SOURCE_RUN, 1.0, 10, "pid:1",
                        attempts=2)
        return RunReport(
            jobs=2, cache_enabled=False, wall_s=4.0,
            units=[ok, failed, shared],
            failures=[FailureRecord(
                "fig6", "flows:200", attempts=3,
                error="Traceback ...\nFaultInjected: boom",
                history=[f"attempt {i} error: FaultInjected: boom"
                         for i in (1, 2, 3)],
                shared_with=["fig4/service:web"])],
            failed_experiments=["fig6", "fig4"], pool_respawns=1)

    def test_failure_accounting(self):
        report = self.make_failed_report()
        assert report.failed == 2            # primary + shared dependent
        assert report.retries == 2 + 1       # failed tries + one retry
        assert report.executed == 1
        assert report.units[0].retried == 1

    def test_render_includes_failures_table(self):
        text = self.make_failed_report().render()
        assert "permanent failures" in text
        assert "fig6/flows:200" in text
        assert "fig4/service:web" in text    # shared casualty listed
        assert "pool respawns" in text
        assert "retried attempts" in text

    def test_failure_record_round_trips(self):
        import json
        doc = self.make_failed_report().to_dict()
        payload = json.loads(json.dumps(doc))
        assert payload["failures"][0]["shared_with"] == ["fig4/service:web"]
        assert payload["failed_experiments"] == ["fig6", "fig4"]
        assert payload["pool_respawns"] == 1
        assert payload["units"][1]["error"] == "FaultInjected: boom"


class _FakeExperiment:
    """Module-shaped stand-in: a fixed unit list, never merged."""

    def __init__(self, *units: WorkUnit):
        self.units = list(units)

    def work_units(self, scale, seed):
        return list(self.units)

    def merge(self, units, payloads, *, scale, seed):
        raise AssertionError("resolve-phase tests never merge")


class _NeverExecutes(ExecutorBackend):
    def execute(self, tasks, context):
        raise AssertionError(f"backend was handed {tasks}")


class TestResolvePhase:
    """The campaign's resolve phase, driven directly over a fake
    two-experiment plan: no unit ever executes."""

    SCALE, SEED = 0.1, 3

    def campaign(self, modules, **kwargs) -> _Campaign:
        kwargs.setdefault("cache", ResultCache(enabled=False))
        campaign = _Campaign(list(modules), modules, scale=self.SCALE,
                             seed=self.SEED, jobs=1,
                             backend=_NeverExecutes(), **kwargs)
        campaign.plan()
        campaign.resolve()
        return campaign

    def replay(self, modules, tmp_path, **state) -> JournalReplay:
        keys = [u.cache_key() for m in modules.values() for u in m.units]
        return JournalReplay(
            identity=campaign_identity(list(modules), self.SCALE,
                                       self.SEED, keys),
            names=list(modules), scale=self.SCALE, seed=self.SEED,
            telemetry=None, journal_path=tmp_path / "j.jsonl", **state)

    def test_key_shared_with_a_pending_unit_resolves_with_it(self):
        first, second = unit(experiment="a"), unit(experiment="b")
        assert first.cache_key() == second.cache_key()
        notified = []
        campaign = self.campaign({"a": _FakeExperiment(first),
                                  "b": _FakeExperiment(second)},
                                 keep_going=True, on_unit=notified.append)
        # One task owes both records; neither is reported done yet.
        [task] = campaign.pending
        assert task.unit is first and notified == []
        [waiting] = campaign.shared_waiting[task.key]
        assert waiting.experiment == "b"

        task.last_error = "boom"
        campaign.on_permanent_failure(task)
        assert [r.source for r in notified] == [SOURCE_FAILED] * 2
        assert [r.experiment for r in notified] == ["a", "b"]
        assert campaign.failures[0].shared_with == [second.label]
        assert campaign.merge() == {}
        assert campaign.failed_experiments == ["a", "b"]

    def test_exhausted_carried_budget_never_reaches_a_backend(self,
                                                              tmp_path):
        spent, fresh = unit(unit_id="spent"), unit(unit_id="fresh",
                                                   params={"n_flows": 9})
        modules = {"a": _FakeExperiment(spent),
                   "b": _FakeExperiment(fresh)}
        cache = ResultCache(directory=tmp_path / "cache")
        cache.put(fresh.cache_key(), {"payload": 1})
        campaign = self.campaign(
            modules, cache=cache, retries=1, keep_going=True,
            resume_from=self.replay(
                modules, tmp_path, charged={spent.cache_key(): 2},
                permanent_failed={spent.cache_key(): "boom"}))
        assert campaign.pending == []
        [task] = campaign.carried_failed
        assert (task.unit, task.attempts) == (spent, 2)

        campaign.execute()  # _NeverExecutes would raise if consulted
        assert campaign.failed_keys == {spent.cache_key()}
        assert campaign.failures[0].attempts == 2
        report = campaign.report("completed")
        campaign.close()
        assert report.resume["failed_carried"] == 1
        assert report.resume["attempts_carried"] == 2

    def test_completed_unit_with_a_lost_cache_entry_is_requeued(self,
                                                                tmp_path):
        lost, kept = unit(unit_id="lost"), unit(unit_id="kept",
                                                params={"n_flows": 9})
        modules = {"a": _FakeExperiment(lost),
                   "b": _FakeExperiment(kept)}
        cache = ResultCache(directory=tmp_path / "cache")
        cache.put(kept.cache_key(), {"payload": 1})
        campaign = self.campaign(
            modules, cache=cache, retries=2, resume_from=self.replay(
                modules, tmp_path,
                completed={lost.cache_key(): 3, kept.cache_key(): 1},
                charged={lost.cache_key(): 1}))
        campaign.close()
        # Pending again, charged only what the journal charged — not the
        # three attempts its lost completion took.
        [task] = campaign.pending
        assert (task.unit, task.attempts) == (lost, 1)
        assert campaign.carried_failed == []
        assert campaign.completed_carried == 1  # `kept`, from the cache
        assert campaign.attempts_carried == 1


class TestCampaignLifetime:
    def test_campaign_state_is_freed_without_a_gc_pass(self):
        """The campaign object holds every payload; a reference cycle
        through it would keep them alive past ``run_experiments`` until
        the collector happens to run (measurable as peak RSS)."""
        gc.collect()
        gc.disable()
        try:
            run_experiments(["fig1"], scale=0.05, jobs=1)
            assert not [obj for obj in gc.get_objects()
                        if isinstance(obj, _Campaign)]
        finally:
            gc.enable()
