"""Verdict-campaign gates: plan shape, CLI grid trimming, and the
execution-path identity the golden fixture relies on.

The fixture *values* are pinned by ``tests/test_golden_results.py`` (the
``verdict`` case in ``repro.tools.golden``); this file pins the
*execution paths* against each other: the golden grid must merge
byte-identically run serial, fanned out over workers, served from cache,
and resumed after a SIGTERM mid-campaign.
"""

from __future__ import annotations

import json
import signal
from pathlib import Path

import pytest

from repro.analysis.export import result_to_dict
from repro.experiments.engine import (CampaignInterrupted, FaultSpec,
                                      ResultCache, replay_journal,
                                      run_experiments)
from repro.experiments.runner import build_verdict_parser, verdict_main
from repro.experiments.verdict import (DEFAULT_GRID, VerdictExperiment,
                                       VerdictGrid, grid_units)
from repro.tools.golden import SCALE, SEED, golden_verdict_grid

#: Immediate retries: these tests should not spend wall time backing off.
FAST = {"retry_backoff_s": 0.0}


def doc(result) -> str:
    """Canonical JSON form of a verdict result for byte comparison."""
    return json.dumps(result_to_dict(result), sort_keys=True,
                      default=lambda o: f"<{type(o).__name__}>")


def run_verdict(grid: VerdictGrid, **engine_kwargs):
    """The golden grid through the engine, like the CLI does."""
    results, report = run_experiments(
        ["verdict"], scale=SCALE, seed=SEED,
        extra_modules={"verdict": VerdictExperiment(grid)}, **engine_kwargs)
    return results.get("verdict"), report


class TestPlanShape:
    def test_unit_count_and_uniqueness(self):
        grid = DEFAULT_GRID
        work = grid_units(grid, scale=1.0, seed=0)
        per_scheme = (len(grid.flow_counts) * len(grid.burst_ms)
                      + (1 if grid.mix else 0))
        assert len(work) == len(grid.schemes) * per_scheme
        assert len({u.unit_id for u in work}) == len(work)
        assert len({u.cache_key() for u in work}) == len(work)

    def test_baseline_units_are_scheme_blind(self):
        """A dctcp unit's overrides carry no ``scheme`` key, so its cache
        key equals a sweep point's that never named the axis — the axis
        is invisible until exercised."""
        work = grid_units(VerdictGrid(schemes=("dctcp", "fec")),
                          scale=1.0, seed=0)
        assert all(u.fn == "repro.experiments.sweep:run_unit"
                   for u in work)
        baseline = [u for u in work if u.unit_id.startswith("dctcp/")]
        assert baseline and all("scheme" not in u.params["overrides"]
                                for u in baseline)
        others = [u for u in work if not u.unit_id.startswith("dctcp/")]
        assert others and all(u.params["overrides"]["scheme"] == "fec"
                              for u in others)

    def test_units_are_sweep_points(self):
        """A verdict incast unit and a ``dumbbell_incast`` sweep point
        over the same overrides are one computation: one cache key."""
        from repro.experiments.sweep import SweepSpec, compile_units
        unit, = grid_units(VerdictGrid(schemes=("dctcp",), flow_counts=(40,),
                                       burst_ms=(2.0,), mix=False),
                           scale=0.05, seed=3)
        point, = compile_units(SweepSpec(
            name="v", scenario="dumbbell_incast",
            fixed=unit.params["overrides"]), scale=0.05, seed=3)
        assert unit.unit_id == "dctcp/flows:40/burst:2ms"
        assert point.cache_key() == unit.cache_key()

    @pytest.mark.parametrize("kwargs,match", [
        ({"schemes": ("dctcp", "bogus")}, "unknown scheme"),
        ({"schemes": ()}, "empty"),
        ({"flow_counts": (50, 50)}, "repeats"),
        ({"flow_counts": (0,)}, "positive"),
        ({"burst_ms": (-2.0,)}, "positive"),
        ({"burst_ms": (float("nan"),)}, "finite"),
        ({"burst_ms": (2.0, float("inf"))}, "finite"),
    ])
    def test_grid_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            VerdictGrid(**kwargs)


class TestCli:
    def test_plan_flag_prints_the_compiled_units(self, capsys):
        rc = verdict_main(["--plan", "--schemes", "dctcp,detect",
                           "--flows", "40", "--burst-ms", "2",
                           "--no-mix"])
        assert rc == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["n_units"] == 2
        assert {u["unit_id"] for u in plan["units"]} == {
            "dctcp/flows:40/burst:2ms", "detect/flows:40/burst:2ms"}

    def test_unknown_scheme_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            verdict_main(["--plan", "--schemes", "bogus"])
        assert excinfo.value.code == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_malformed_flows_is_a_usage_error(self, capsys):
        parser = build_verdict_parser()
        args = parser.parse_args(["--flows", "fifty"])
        assert args.flows == "fifty"
        with pytest.raises(SystemExit):
            verdict_main(["--plan", "--flows", "fifty"])


class TestExecutionPathIdentity:
    @pytest.fixture(scope="class")
    def baseline(self):
        """The serial, uncached reference result for the golden grid."""
        result, _report = run_verdict(golden_verdict_grid(), jobs=1)
        return result

    def test_parallel_is_byte_identical_to_serial(self, baseline):
        parallel, report = run_verdict(golden_verdict_grid(), jobs=4)
        assert doc(parallel) == doc(baseline)
        assert report.executed == report.n_units

    def test_cache_round_trip_is_byte_identical(self, baseline,
                                                tmp_path: Path):
        cache = ResultCache(tmp_path / "cache")
        first, cold = run_verdict(golden_verdict_grid(), jobs=1,
                                  cache=cache)
        second, warm = run_verdict(golden_verdict_grid(), jobs=1,
                                   cache=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.n_units
        assert doc(first) == doc(baseline)
        assert doc(second) == doc(baseline)

    def test_sigterm_then_resume_is_byte_identical(self, baseline,
                                                   tmp_path: Path):
        """A SIGTERM after the first completed unit preempts the campaign
        gracefully; resuming from the journal serves the completed unit
        from cache, runs only the remainder, and merges byte-identically
        to the uninterrupted run."""
        cache = ResultCache(tmp_path / "cache")
        journal = tmp_path / "j.jsonl"
        sigspec = FaultSpec(unit="verdict/*", mode="signal", times=1,
                            signum=int(signal.SIGTERM))
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_verdict(golden_verdict_grid(), jobs=1, cache=cache,
                        journal_path=journal, faults=[sigspec],
                        handle_signals=True, **FAST)
        assert excinfo.value.signum == int(signal.SIGTERM)

        replay = replay_journal(journal)
        assert len(replay.completed) == 1
        assert replay.interrupted_signum == int(signal.SIGTERM)

        resumed, report = run_verdict(golden_verdict_grid(), jobs=1,
                                      cache=cache, resume_from=replay,
                                      **FAST)
        assert doc(resumed) == doc(baseline)
        assert report.resume["resumed"] is True
        assert report.resume["completed_carried"] == 1
        assert report.cache_hits == 1
        assert report.executed == report.n_units - 1
