"""Sweep execution gates: the golden grids must be byte-identical run
serial, fanned out over workers, served from cache, and resumed after a
SIGTERM mid-campaign.

The fixture *values* are pinned by ``tests/test_golden_results.py`` (the
sweep cases are registered in ``repro.tools.golden``); this file pins the
*execution paths* against each other, reusing the engine's in-process
signal-fault machinery so preemption is deterministic and assertable.
"""

from __future__ import annotations

import json
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import export, fct
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.export import result_to_dict
from repro.experiments import sweep
from repro.experiments.engine import (CampaignInterrupted, FaultSpec,
                                      ResultCache, replay_journal)
from repro.experiments.sweep import run_sweep
from repro.tools.golden import SCALE, SEED, golden_sweep_specs

#: Immediate retries: these tests should not spend wall time backing off.
FAST = {"retry_backoff_s": 0.0}


def doc(result) -> str:
    """Canonical JSON form of a sweep result for byte comparison."""
    return json.dumps(result_to_dict(result), sort_keys=True,
                      default=lambda o: f"<{type(o).__name__}>")


@pytest.fixture(params=sorted(golden_sweep_specs()))
def spec(request):
    """Each golden sweep spec in turn."""
    return golden_sweep_specs()[request.param]


@pytest.fixture
def baseline(spec):
    """The serial, uncached reference result for ``spec``."""
    result, _report = run_sweep(spec, scale=SCALE, seed=SEED, jobs=1)
    return result


class TestExecutionPathIdentity:
    def test_parallel_is_byte_identical_to_serial(self, spec, baseline):
        parallel, report = run_sweep(spec, scale=SCALE, seed=SEED, jobs=4)
        assert doc(parallel) == doc(baseline)
        assert report.executed == report.n_units

    def test_cache_round_trip_is_byte_identical(self, spec, baseline,
                                                tmp_path: Path):
        cache = ResultCache(tmp_path / "cache")
        first, cold = run_sweep(spec, scale=SCALE, seed=SEED, jobs=1,
                                cache=cache)
        second, warm = run_sweep(spec, scale=SCALE, seed=SEED, jobs=1,
                                 cache=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.n_units
        assert doc(first) == doc(baseline)
        assert doc(second) == doc(baseline)

    def test_sigterm_then_resume_is_byte_identical(self, spec, baseline,
                                                   tmp_path: Path):
        """A SIGTERM after the first completed unit preempts the campaign
        gracefully; resuming from the journal serves the completed unit
        from cache, runs only the remainder, and merges byte-identically
        to the uninterrupted run."""
        cache = ResultCache(tmp_path / "cache")
        journal = tmp_path / "j.jsonl"
        sigspec = FaultSpec(unit=f"{spec.experiment_name}/*",
                            mode="signal", times=1,
                            signum=int(signal.SIGTERM))
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_sweep(spec, scale=SCALE, seed=SEED, jobs=1, cache=cache,
                      journal_path=journal, faults=[sigspec],
                      handle_signals=True, **FAST)
        assert excinfo.value.signum == int(signal.SIGTERM)

        replay = replay_journal(journal)
        assert len(replay.completed) == 1
        assert replay.interrupted_signum == int(signal.SIGTERM)

        resumed, report = run_sweep(spec, scale=SCALE, seed=SEED, jobs=1,
                                    cache=cache, resume_from=replay,
                                    **FAST)
        assert doc(resumed) == doc(baseline)
        assert report.resume["resumed"] is True
        assert report.resume["completed_carried"] == 1
        assert report.cache_hits == 1
        assert report.executed == report.n_units - 1


class TestMergeCost:
    """The merge phase's cost model as counts, which repeat exactly where
    a timing would not: every point's FCT digest comes from one columnar
    pass (:class:`~repro.analysis.fct.FctGrid`), so the only
    :class:`EmpiricalCdf` s built are the two merged ones, whatever the
    number of points, and nothing calls back into ``numpy.percentile`` (a
    percentile is an index into the sorted sample). One CDF per (point,
    class), or numpy on the query path, is what made a fully cached sweep
    spend its time here. No flow record is rebuilt, and the export walks
    a document that is already plain JSON types, so the normaliser is
    never entered."""

    def test_two_merged_cdfs_and_no_numpy_percentile(
            self, monkeypatch, tmp_path):
        spec = golden_sweep_specs()["sweep_ecn_k"]    # mice + elephants
        work = sweep.compile_units(spec, SCALE, SEED)
        payloads = [sweep.run_unit(unit) for unit in work]
        assert all(p.fcts.digest().cdfs.keys() == {"mice", "elephants"}
                   for p in payloads)

        counts = {"cdf": 0, "np.percentile": 0, "flow": 0, "jsonable": 0}
        build, percentile = EmpiricalCdf.__init__, np.percentile
        flow_checks, normalise = fct.FlowFct.__post_init__, export.jsonable

        def counting_init(self, *args, **kwargs):
            counts["cdf"] += 1
            build(self, *args, **kwargs)

        def counting_percentile(*args, **kwargs):
            counts["np.percentile"] += 1
            return percentile(*args, **kwargs)

        def counting_flow(self):
            counts["flow"] += 1
            flow_checks(self)

        def counting_jsonable(value):
            counts["jsonable"] += 1
            return normalise(value)

        monkeypatch.setattr(EmpiricalCdf, "__init__", counting_init)
        monkeypatch.setattr(np, "percentile", counting_percentile)
        monkeypatch.setattr(fct.FlowFct, "__post_init__", counting_flow)
        monkeypatch.setattr(export, "jsonable", counting_jsonable)
        result = sweep.merge(spec, work, payloads, scale=SCALE, seed=SEED)

        assert counts["np.percentile"] == 0
        assert counts["cdf"] == 2
        assert counts["flow"] == 0
        assert set(result.data["points"]) == {u.unit_id for u in work}

        path = export.write_result(result, tmp_path)
        assert counts["jsonable"] == 0
        assert json.loads(path.read_text())["data"]["merged_fct"] \
            == result.data["merged_fct"]
