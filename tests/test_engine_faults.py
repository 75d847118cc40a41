"""Chaos suite: the engine must survive what real fleets do to campaigns.

Faults are injected deterministically through
:mod:`repro.experiments.engine.faults` — a worker raising, a worker
hard-crashing (breaking the whole process pool), a unit hanging past the
wall-clock timeout, and permanent failures under both ``--fail-fast`` and
``--keep-going``. The load-bearing invariant throughout: payloads derive
every RNG stream from ``(seed, name)``, so a run that *recovered* from
faults is byte-identical to a fault-free run — retries can change how
often a unit executes, never what it computes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.export import result_to_dict
from repro.experiments.engine import (CampaignError, FaultInjected,
                                      FaultSpec, ResultCache,
                                      faults_from_env, parse_faults,
                                      run_experiments)
from repro.experiments.engine.report import SOURCE_FAILED, SOURCE_SHARED
from repro.experiments.engine.spec import WorkUnit

SCALE = 0.05
SEED = 11

#: Immediate retries: chaos tests should not spend wall time backing off.
FAST = {"retry_backoff_s": 0.0}


def doc(result) -> str:
    """Canonical JSON form of a result for byte-identity comparison."""
    return json.dumps(result_to_dict(result), sort_keys=True,
                      allow_nan=False,
                      default=lambda o: f"<{type(o).__name__}>")


@pytest.fixture(scope="module")
def fault_free_fig6() -> str:
    """Serial fault-free fig6, the anchor every recovery must reproduce."""
    results, report = run_experiments(["fig6"], scale=SCALE, seed=SEED,
                                      jobs=1)
    assert report.retries == 0 and not report.failures
    return doc(results["fig6"])


class TestFlakyRecovery:
    def test_flaky_once_is_retried_and_byte_identical(self, fault_free_fig6):
        """The acceptance scenario: one unit crashes once, ``--retries 2
        --jobs 4`` recovers, results match a fault-free ``--jobs 1`` run,
        and the report records exactly one retried attempt."""
        flaky = [FaultSpec(unit="fig6/flows:100", mode="error", times=1)]
        results, report = run_experiments(
            ["fig6"], scale=SCALE, seed=SEED, jobs=4, retries=2,
            faults=flaky, **FAST)
        assert doc(results["fig6"]) == fault_free_fig6
        assert report.retries == 1
        assert not report.failures and not report.failed_experiments
        by_id = {u.unit_id: u for u in report.units}
        assert by_id["flows:100"].attempts == 2
        assert all(u.attempts == 1 for u in report.units
                   if u.unit_id != "flows:100")
        assert json.loads(json.dumps(report.to_dict()))["retries"] == 1

    def test_serial_path_retries_in_process(self, fault_free_fig6):
        flaky = [FaultSpec(unit="fig6/flows:50", mode="error", times=1)]
        results, report = run_experiments(
            ["fig6"], scale=SCALE, seed=SEED, jobs=1, retries=1,
            faults=flaky, **FAST)
        assert doc(results["fig6"]) == fault_free_fig6
        assert report.retries == 1
        assert report.pool_respawns == 0  # no pool in the serial path

    def test_recovered_payloads_satisfy_fault_free_cache_lookups(
            self, fault_free_fig6, tmp_path: Path):
        """Fault specs are execution context, not identity: a payload
        computed on a recovered retry must hit for a fault-free run."""
        cache_dir = tmp_path / "cache"
        flaky = [FaultSpec(unit="fig6/*", mode="error", times=1)]
        run_experiments(["fig6"], scale=SCALE, seed=SEED, jobs=2,
                        retries=2, faults=flaky,
                        cache=ResultCache(directory=cache_dir), **FAST)
        results, warm = run_experiments(
            ["fig6"], scale=SCALE, seed=SEED, jobs=2,
            cache=ResultCache(directory=cache_dir))
        assert warm.cache_hits == warm.n_units
        assert warm.executed == 0
        assert doc(results["fig6"]) == fault_free_fig6


class TestWorkerCrash:
    def test_pool_respawns_and_results_survive(self, fault_free_fig6):
        """A hard worker death breaks the ProcessPoolExecutor; the engine
        must respawn it, requeue the in-flight units and finish clean."""
        crash = [FaultSpec(unit="fig6/flows:500", mode="crash", times=1)]
        results, report = run_experiments(
            ["fig6"], scale=SCALE, seed=SEED, jobs=2, retries=2,
            faults=crash, **FAST)
        assert doc(results["fig6"]) == fault_free_fig6
        assert report.pool_respawns >= 1
        assert not report.failures
        # Quarantine pins the blame: only the crasher is ever charged,
        # innocent in-flight units are probed/requeued uncharged.
        by_id = {u.unit_id: u for u in report.units}
        assert by_id["flows:500"].attempts == 2
        assert all(u.attempts == 1 for u in report.units
                   if u.unit_id != "flows:500")
        assert report.retries == 1

    def test_permanent_crasher_fails_only_its_experiments(self):
        crash = [FaultSpec(unit="fig6/*", mode="crash", times=-1)]
        results, report = run_experiments(
            ["fig6", "fig1"], scale=SCALE, seed=SEED, jobs=2, retries=1,
            keep_going=True, faults=crash, **FAST)
        assert "fig1" in results and "fig6" not in results
        assert report.failed_experiments == ["fig6"]
        assert report.pool_respawns >= 1
        assert {f.experiment for f in report.failures} == {"fig6"}


class TestHangTimeout:
    def test_hung_unit_is_reaped_retried_and_identical(self,
                                                       fault_free_fig6):
        hang = [FaultSpec(unit="fig6/flows:50", mode="hang", times=1,
                          hang_s=120.0)]
        results, report = run_experiments(
            ["fig6"], scale=SCALE, seed=SEED, jobs=2, retries=1,
            unit_timeout_s=5.0, faults=hang, **FAST)
        assert doc(results["fig6"]) == fault_free_fig6
        assert report.pool_respawns >= 1
        assert not report.failures
        by_id = {u.unit_id: u for u in report.units}
        assert by_id["flows:50"].attempts == 2  # timeout charged once
        # Innocent in-flight units killed with the pool are *uncharged*.
        assert all(u.attempts == 1 for u in report.units
                   if u.unit_id != "flows:50")

    def test_permanent_hang_exhausts_retries(self):
        hang = [FaultSpec(unit="fig6/flows:200", mode="hang", times=-1,
                          hang_s=120.0)]
        with pytest.raises(CampaignError) as excinfo:
            run_experiments(["fig6"], scale=SCALE, seed=SEED, jobs=2,
                            retries=1, unit_timeout_s=2.0, faults=hang,
                            **FAST)
        failure = excinfo.value.failures[0]
        assert failure.label == "fig6/flows:200"
        assert failure.attempts == 2
        assert "timeout" in " ".join(failure.history)

    def test_timeout_requires_pool(self):
        with pytest.raises(ValueError, match="jobs >= 2"):
            run_experiments(["fig6"], scale=SCALE, seed=SEED, jobs=1,
                            unit_timeout_s=1.0)


class TestPermanentFailure:
    PERMA = [FaultSpec(unit="fig6/flows:200", mode="error", times=-1)]

    def test_fail_fast_raises_campaign_error_with_report(self):
        with pytest.raises(CampaignError) as excinfo:
            run_experiments(["fig6"], scale=SCALE, seed=SEED, jobs=2,
                            retries=1, faults=self.PERMA, **FAST)
        exc = excinfo.value
        assert [f.label for f in exc.failures] == ["fig6/flows:200"]
        assert exc.failures[0].attempts == 2  # retries + 1 tries
        assert len(exc.failures[0].history) == 2
        assert "FaultInjected" in exc.failures[0].error
        rendered = exc.report.render()
        assert "permanent failures" in rendered
        assert "fig6/flows:200" in rendered

    def test_keep_going_merges_survivors_and_records_failures(self):
        solo_fig1, _ = run_experiments(["fig1"], scale=SCALE, seed=SEED,
                                       jobs=1)
        results, report = run_experiments(
            ["fig6", "fig1"], scale=SCALE, seed=SEED, jobs=2, retries=1,
            keep_going=True, faults=self.PERMA, **FAST)
        # Survivors merge, and their payloads are untouched by the chaos.
        assert doc(results["fig1"]) == doc(solo_fig1["fig1"])
        assert "fig6" not in results
        assert report.failed_experiments == ["fig6"]
        assert report.failed == 1
        record = next(u for u in report.units
                      if u.unit_id == "flows:200")
        assert record.source == SOURCE_FAILED
        assert record.attempts == 2
        assert record.error  # summary line present in the unit record
        # The structured failures section round-trips through JSON.
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["failed_experiments"] == ["fig6"]
        assert payload["failures"][0]["unit_id"] == "flows:200"
        assert payload["failures"][0]["attempts"] == 2
        assert len(payload["failures"][0]["history"]) == 2


class TestSharedUnits:
    """fig2/fig4 share campaign units — failure must propagate by key."""

    def test_shared_unit_failure_fails_both_experiments(self):
        perma = [FaultSpec(unit="fig2/service:*", mode="error", times=-1)]
        results, report = run_experiments(
            ["fig2", "fig4", "fig1"], scale=SCALE, seed=SEED, jobs=2,
            retries=0, keep_going=True, faults=perma, **FAST)
        assert "fig1" in results
        assert report.failed_experiments == ["fig2", "fig4"]
        # fig4's deduplicated records fail *with* the backing fig2 units
        # instead of stranding merge() on a missing payload.
        fig4_records = [u for u in report.units if u.experiment == "fig4"]
        assert fig4_records
        assert all(u.source == SOURCE_FAILED for u in fig4_records)
        assert all("shared unit" in (u.error or "") for u in fig4_records)
        assert all(f.shared_with for f in report.failures)

    def test_shared_records_resolve_after_their_backing_unit(self):
        """Regression: a shared record used to be reported done at *plan*
        time, before its backing pending unit had run at all."""
        events: list[tuple[str, str, str]] = []
        run_experiments(
            ["fig2", "fig4"], scale=SCALE, seed=SEED, jobs=2,
            on_unit=lambda u: events.append(
                (u.experiment, u.unit_id, u.source)))
        emitted = {(exp, uid): i for i, (exp, uid, _) in enumerate(events)}
        shared = [(exp, uid) for exp, uid, src in events
                  if src == SOURCE_SHARED]
        assert shared, "fig2/fig4 should deduplicate campaign units"
        for exp, uid in shared:
            backing = ("fig2" if exp == "fig4" else "fig4", uid)
            assert emitted[backing] < emitted[(exp, uid)]


class TestFaultLayer:
    UNIT = WorkUnit(experiment="fig6", unit_id="flows:50",
                    fn="repro.experiments.sweep:run_unit",
                    params={"n_flows": 50}, scale=SCALE, seed=SEED)

    def test_should_fire_scopes_by_glob_and_attempt(self):
        spec = FaultSpec(unit="fig6/*", mode="error", times=2)
        assert spec.should_fire(self.UNIT, 0)
        assert spec.should_fire(self.UNIT, 1)
        assert not spec.should_fire(self.UNIT, 2)
        other = WorkUnit(experiment="fig5", unit_id="panel:x",
                         fn="repro.experiments.sweep:run_unit")
        assert not spec.should_fire(other, 0)
        forever = FaultSpec(unit="fig6/flows:50", times=-1)
        assert forever.should_fire(self.UNIT, 10_000)

    def test_error_fault_raises_and_touches_marker(self, tmp_path: Path):
        marker = tmp_path / "fired"
        spec = FaultSpec(unit="fig6/*", mode="error", marker=str(marker))
        with pytest.raises(FaultInjected, match="flows:50 attempt 0"):
            spec.fire(self.UNIT, 0)
        assert marker.exists()

    def test_faults_never_touch_unit_identity(self):
        """Specs live outside the unit: params and cache key unchanged."""
        key = self.UNIT.cache_key()
        FaultSpec(unit="fig6/*", mode="error")  # constructing is inert
        assert self.UNIT.cache_key() == key
        assert "faults" not in self.UNIT.identity()

    def test_parse_faults_round_trip(self):
        specs = parse_faults(
            '[{"unit": "fig6/*", "mode": "hang", "times": 3, '
            '"hang_s": 9.5}]')
        assert specs == (FaultSpec(unit="fig6/*", mode="hang", times=3,
                                   hang_s=9.5),)

    @pytest.mark.parametrize("text", [
        "not json", '{"unit": "x"}', '[{"mode": "error"}]',
        '[{"unit": "x", "mode": "explode"}]',
        '[{"unit": "x", "banana": 1}]',
    ])
    def test_parse_faults_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            parse_faults(text)

    def test_faults_from_env(self):
        env = {"REPRO_FAULTS": '[{"unit": "a/*"}]'}
        assert faults_from_env(env) == (FaultSpec(unit="a/*"),)
        assert faults_from_env({}) == ()
        assert faults_from_env({"REPRO_FAULTS": "  "}) == ()


class TestEngineValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_experiments(["fig1"], scale=SCALE, seed=SEED, jobs=1,
                            retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="unit_timeout_s"):
            run_experiments(["fig1"], scale=SCALE, seed=SEED, jobs=2,
                            unit_timeout_s=0.0)


class TestPreemptResume:
    """The crash-safety acceptance scenario: a campaign SIGTERMed
    mid-run (via the deterministic ``signal`` fault spec) exits 143
    with a flushed journal; restarted with ``--resume`` it re-executes
    only the remainder, carries charged attempt counts over exactly,
    and merges results byte-identical to an uninterrupted run."""

    @staticmethod
    def _cli(argv, tmp_path: Path, faults=None) -> \
            subprocess.CompletedProcess:
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("REPRO_FAULTS", None)
        if faults is not None:
            env["REPRO_FAULTS"] = json.dumps(faults)
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=300)

    def test_sigterm_then_resume_is_byte_identical(self, tmp_path: Path):
        cache_dir = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        out_base = tmp_path / "out-baseline"
        out_resumed = tmp_path / "out-resumed"
        common = ["-e", "fig6", "--scale", str(SCALE), "--seed", str(SEED),
                  "--jobs", "2"]

        baseline = self._cli(
            [*common, "--cache-dir", str(tmp_path / "cache-baseline"),
             "--json-dir", str(out_base)], tmp_path)
        assert baseline.returncode == 0, baseline.stderr

        # Leg 1: flows:50 (first submitted — equal cost hints keep plan
        # order) fails its only attempt — one *charged* attempt in the
        # journal — and the first unit to complete triggers a SIGTERM,
        # exactly a scheduler preemption.
        leg1 = self._cli(
            [*common, "--cache-dir", str(cache_dir), "--retries", "0",
             "--keep-going", "--journal", str(journal)],
            tmp_path, faults=[
                {"unit": "fig6/flows:50", "mode": "error", "times": -1},
                {"unit": "fig6/*", "mode": "signal", "times": 1}])
        assert leg1.returncode == 128 + signal.SIGTERM  # 143
        assert b"interrupted" in leg1.stderr
        assert b"resume with" in leg1.stderr
        assert journal.exists()
        # Preemption reaped the pool and swept its spill files.
        assert ResultCache(directory=cache_dir).sweep_stale() == 0
        assert not list(cache_dir.rglob(".*.tmp"))

        # Leg 2: resume with a retry budget of 2 — flows:50's carried
        # charge leaves it exactly one more try, which succeeds.
        leg2 = self._cli(
            ["--resume", str(journal), "--cache-dir", str(cache_dir),
             "--jobs", "2", "--retries", "1", "--json-dir",
             str(out_resumed)], tmp_path)
        assert leg2.returncode == 0, leg2.stderr
        assert (out_resumed / "fig6.json").read_bytes() == \
            (out_base / "fig6.json").read_bytes()

        report = json.loads((out_resumed / "run_report.json").read_text())
        assert report["resume"]["resumed"] is True
        assert report["resume"]["attempts_carried"] == 1
        assert report["resume"]["completed_carried"] == 1
        assert report["resume"]["failed_carried"] == 0
        by_id = {u["unit_id"]: u for u in report["units"]}
        # The carried charge counts: success on the second attempt.
        assert by_id["flows:50"]["attempts"] == 2
        assert by_id["flows:50"]["source"] == "run"
        # The journal-completed unit was never re-executed.
        assert by_id[next(
            uid for uid, u in by_id.items()
            if u["source"] == "cache")]["attempts"] == 0

    def test_resume_refuses_a_different_campaign(self, tmp_path: Path):
        cache_dir = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        first = self._cli(
            ["-e", "fig1", "--scale", str(SCALE), "--seed", str(SEED),
             "--jobs", "1", "--cache-dir", str(cache_dir),
             "--journal", str(journal)], tmp_path)
        assert first.returncode == 0, first.stderr
        mismatched = self._cli(
            ["--resume", str(journal), "--seed", str(SEED + 1),
             "--cache-dir", str(cache_dir), "--jobs", "1"], tmp_path)
        assert mismatched.returncode == 2
        assert b"recorded for campaign" in mismatched.stderr


class TestCtrlC:
    """SIGINT mid-campaign: cancel, reap the pool, exit 130, leave no
    orphan spill files beyond what ``sweep_stale()`` reaps."""

    def test_sigint_mid_pool_phase(self, tmp_path: Path):
        marker = tmp_path / "fault-entered"
        cache_dir = tmp_path / "cache"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            REPRO_FAULTS=json.dumps([{
                "unit": "fig6/*", "mode": "hang", "times": -1,
                "hang_s": 300.0, "marker": str(marker)}]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "-e", "fig6",
             "--scale", str(SCALE), "--seed", str(SEED), "--jobs", "2",
             "--cache-dir", str(cache_dir)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 120
            while not marker.exists():
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, \
                    "no worker reached the pool phase"
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert b"interrupted" in err
        # The engine reaped its workers and swept their spill files; a
        # fresh sweep_stale() finds nothing more to do.
        cache = ResultCache(directory=cache_dir)
        assert cache.sweep_stale() == 0
        assert not list(cache_dir.rglob(".*.tmp"))
