"""CLI coverage for ``python -m repro.experiments``.

``--list``, unknown-experiment rejection, the ``--jobs``/cache flags,
the ``--json-dir`` round trip (results plus the engine run report), and
the crash-safety surface: ``--journal``/``--resume``/
``--checkpoint-interval`` validation, ``--cache-quota`` parsing, the
``--scale`` type every surface shares, and a reader that closes the pipe
early.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.engine.cache import finite_positive
from repro.experiments.runner import (EXPERIMENTS, build_parser, main,
                                      parse_size)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.jobs is None
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_jobs_flag(self):
        assert build_parser().parse_args(["--jobs", "4"]).jobs == 4
        assert build_parser().parse_args(["-j", "2"]).jobs == 2

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["-e", "not_an_experiment"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_nonpositive_jobs_rejected(self, capsys):
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit) as excinfo:
                main(["-e", "fig1", "--jobs", bad])
            assert excinfo.value.code == 2
            assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_cache_dir_must_be_a_directory(self, tmp_path, capsys):
        not_a_dir = tmp_path / "plain_file"
        not_a_dir.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--cache-dir", str(not_a_dir)])
        assert excinfo.value.code == 2
        assert "is not a directory" in capsys.readouterr().err

    def test_cache_flags(self):
        args = build_parser().parse_args(
            ["--no-cache", "--cache-dir", "/tmp/somewhere"])
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/somewhere"

    def test_fault_tolerance_defaults(self):
        args = build_parser().parse_args([])
        assert args.retries == 1
        assert args.unit_timeout is None
        assert args.keep_going is False

    def test_fault_tolerance_flags(self):
        args = build_parser().parse_args(
            ["--retries", "3", "--unit-timeout", "120.5", "--keep-going"])
        assert args.retries == 3
        assert args.unit_timeout == 120.5
        assert args.keep_going is True
        assert build_parser().parse_args(["--fail-fast"]).keep_going \
            is False

    def test_keep_going_and_fail_fast_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--keep-going", "--fail-fast"])
        assert excinfo.value.code == 2

    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--retries", "-1"])
        assert excinfo.value.code == 2
        assert "--retries must be >= 0" in capsys.readouterr().err

    def test_nonpositive_unit_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--jobs", "2", "--unit-timeout", "0"])
        assert excinfo.value.code == 2
        assert "argument --unit-timeout" in capsys.readouterr().err

    def test_unit_timeout_requires_parallel_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--jobs", "1", "--unit-timeout", "60"])
        assert excinfo.value.code == 2
        assert "--jobs >= 2" in capsys.readouterr().err

    def test_distributed_only_flags_need_the_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--listen", "127.0.0.1:0"])
        assert excinfo.value.code == 2
        assert "--listen requires --backend distributed" \
            in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers requires --backend distributed" \
            in capsys.readouterr().err

    def test_distributed_backend_needs_a_worker_source(self, capsys):
        """A coordinator with no bind address and no spawned workers
        would wait forever; refuse it up front."""
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--backend", "distributed"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--listen" in err and "--workers" in err

    @pytest.mark.parametrize("listen", ["nope:", "host:banana",
                                        "host:99999"])
    def test_unparseable_listen_rejected(self, listen, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--backend", "distributed",
                  "--listen", listen])
        assert excinfo.value.code == 2
        assert "--listen" in capsys.readouterr().err

    def test_negative_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--backend", "distributed",
                  "--workers", "-1"])
        assert excinfo.value.code == 2
        assert "--workers must be >= 0" in capsys.readouterr().err

    def test_unit_timeout_allows_single_job_when_distributed(self):
        """``--unit-timeout`` + ``--jobs 1`` is only an error for the
        local backend — a distributed coordinator reaps leases itself.
        Validation must accept the combination (the campaign then runs
        on whatever fleet connects)."""
        from repro.experiments.runner import _validate_engine_args
        parser = build_parser()
        args = parser.parse_args(
            ["-e", "fig1", "--jobs", "1", "--unit-timeout", "60",
             "--backend", "distributed", "--workers", "2"])
        _validate_engine_args(parser, args)  # must not parser.error
        assert args.unit_timeout == 60.0 and args.workers == 2

    def test_malformed_faults_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1"])
        assert excinfo.value.code == 2
        assert "REPRO_FAULTS" in capsys.readouterr().err

    def test_list_ignores_a_stale_malformed_faults_env(self, capsys,
                                                       monkeypatch):
        # Listing injects no faults, so it must not parse them.
        monkeypatch.setenv("REPRO_FAULTS", "not json")
        assert main(["--list"]) == 0
        assert "fig1" in capsys.readouterr().out

    def test_crash_safety_flag_defaults(self):
        args = build_parser().parse_args([])
        assert args.journal is None
        assert args.resume is None
        assert args.checkpoint_interval is None
        assert args.cache_quota is None

    def test_resume_requires_the_cache(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        journal.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["--resume", str(journal), "--no-cache"])
        assert excinfo.value.code == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_resume_target_must_exist(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--resume", str(tmp_path / "nope.jsonl")])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_checkpoint_interval_needs_a_journal(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--checkpoint-interval", "5"])
        assert excinfo.value.code == 2
        assert "--journal" in capsys.readouterr().err

    def test_checkpoint_interval_must_be_positive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--journal", str(tmp_path / "j.jsonl"),
                  "--checkpoint-interval", "0"])
        assert excinfo.value.code == 2
        assert "--checkpoint-interval" in capsys.readouterr().err

    def test_bad_cache_quota_rejected(self, capsys):
        for bad in ("zero", "-5M", "0"):
            with pytest.raises(SystemExit) as excinfo:
                main(["-e", "fig1", "--cache-quota", bad])
            assert excinfo.value.code == 2
            assert "--cache-quota" in capsys.readouterr().err


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("1048576", 1048576),
        ("4k", 4096),
        ("4K", 4096),
        ("512M", 512 * 1024 ** 2),
        ("2G", 2 * 1024 ** 3),
        ("2GB", 2 * 1024 ** 3),
        ("1.5k", 1536),
    ])
    def test_accepts_common_forms(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "lots", "-1M", "0", "M"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_size(text)

    @pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "1e308G",
                                      "nan", "0.4", "0.0001k"])
    def test_rejects_sizes_it_cannot_honour(self, text):
        # Non-finite or under one byte: once an OverflowError traceback,
        # a NaN message naming no value, or a quota of 0 bytes.
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_size(text)

    @pytest.mark.parametrize("text", ["inf", "1e400", "nan", "0.4"])
    def test_both_clis_refuse_them_as_usage_errors(self, text, capsys):
        from repro.tools import cacheserver
        for cli, flag in ((main, "--cache-quota"),
                          (cacheserver.main, "--quota")):
            argv = [flag, text] if cli is cacheserver.main \
                else ["-e", "fig1", flag, text]
            with pytest.raises(SystemExit) as excinfo:
                cli(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"{flag}: " in err and repr(text) in err


class TestScaleFlag:
    """``--scale`` must be finite and positive, checked at parse time on
    every surface that takes it."""

    BAD = ["nan", "NaN", "inf", "-inf", "0", "-0.0", "-1", "half"]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("prefix", [
        ["-e", "fig1"], ["sweep", "run", "spec.yaml"],
        ["sweep", "plan", "spec.yaml"], ["verdict"]])
    def test_rejected_naming_the_flag(self, prefix, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*prefix, f"--scale={bad}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale" in err and repr(bad) in err

    @pytest.mark.parametrize("text,expected", [
        ("0.05", 0.05), ("1", 1.0), ("2.5", 2.5), ("1e-3", 1e-3)])
    def test_accepts_finite_positive(self, text, expected):
        assert finite_positive(text) == expected
        assert build_parser().parse_args(
            ["--scale", text]).scale == expected

    def test_omitted_scale_stays_unset_for_resume(self):
        # None lets a --resume run take the journal's recorded scale.
        assert build_parser().parse_args([]).scale is None


class TestFloatFlags:
    """Every float flag takes the ``--scale`` type: NaN, ±inf, zero and
    negatives exit 2 at parse time naming the flag, on the main runner,
    ``verdict`` and ``tools.worker`` alike."""

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["-e", "fig1", "--jobs", "2", "--unit-timeout"],
        ["-e", "fig1", "--journal", "j.jsonl", "--checkpoint-interval"],
        ["-e", "fig1", "--telemetry", "--telemetry-interval-us"],
        ["verdict", "--plan", "--burst-ms"],
        ["worker", "--connect", "127.0.0.1:1", "--heartbeat-interval"],
    ], ids=lambda argv: argv[-1])
    def test_rejected_naming_the_flag(self, argv, bad, tmp_path,
                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "worker":
            from repro.tools.worker import main as entry
            argv = argv[1:]
        else:
            entry = main
        with pytest.raises(SystemExit) as excinfo:
            entry([*argv, bad])
        assert excinfo.value.code == 2
        assert f"argument {argv[-1]}: must be finite and positive" \
            in capsys.readouterr().err
        assert not (tmp_path / "j.jsonl").exists()


class TestMain:
    def test_list_names_every_experiment(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_nothing_to_run_exits_2(self, capsys):
        assert main([]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_json_dir_round_trip(self, tmp_path: Path, capsys):
        json_dir = tmp_path / "out"
        code = main(["-e", "fig1", "--scale", "0.05", "--seed", "7",
                     "--jobs", "1", "--no-cache",
                     "--json-dir", str(json_dir)])
        assert code == 0
        doc = json.loads((json_dir / "fig1.json").read_text("utf-8"))
        assert doc["name"] == "fig1"
        assert doc["sections"]

        report = json.loads(
            (json_dir / "run_report.json").read_text("utf-8"))
        assert report["jobs"] == 1
        assert report["cache_enabled"] is False
        assert [u["experiment"] for u in report["units"]] == ["fig1"]
        assert report["executed"] == 1
        # fig1 is fluid-model-based, so no simulator events — but the
        # counter field must be present and well-formed.
        assert report["total_events"] >= 0

        out = capsys.readouterr().out
        assert "Run report" in out
        assert "fig1" in out

    def test_journal_and_resume_round_trip(self, tmp_path: Path, capsys):
        journal = tmp_path / "j.jsonl"
        cache_dir = tmp_path / "cache"
        code = main(["-e", "fig1", "--scale", "0.05", "--seed", "7",
                     "--jobs", "1", "--cache-dir", str(cache_dir),
                     "--journal", str(journal),
                     "--json-dir", str(tmp_path / "out")])
        assert code == 0
        report = json.loads(
            (tmp_path / "out" / "run_report.json").read_text("utf-8"))
        assert Path(report["resume"]["journal"]) == journal.resolve()
        assert report["resume"]["resumed"] is False
        assert "journal" in capsys.readouterr().out  # rendered summary row

        # --resume alone restores the experiment list, scale and seed
        # from the journal header; everything is already cached.
        code = main(["--resume", str(journal), "--cache-dir",
                     str(cache_dir), "--jobs", "1",
                     "--json-dir", str(tmp_path / "out2")])
        assert code == 0
        resumed = json.loads(
            (tmp_path / "out2" / "run_report.json").read_text("utf-8"))
        assert resumed["resume"]["resumed"] is True
        assert resumed["cache_hits"] == resumed["n_units"]
        assert resumed["resume"]["completed_carried"] == resumed["n_units"]

    def test_cache_dir_flag_caches_across_invocations(self, tmp_path,
                                                      capsys):
        cache_dir = tmp_path / "cache"
        args = ["-e", "fig1", "--scale", "0.05", "--seed", "7",
                "--jobs", "1", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        json_dir = tmp_path / "out"
        assert main(args + ["--json-dir", str(json_dir)]) == 0
        report = json.loads(
            (json_dir / "run_report.json").read_text("utf-8"))
        assert report["cache_hits"] == 1
        assert report["executed"] == 0


TINY_SWEEP = """\
name: tiny
scenario: leafspine_mix
description: CLI-test grid
axes:
  ecn_threshold_packets: [8, 65]
fixed:
  n_racks: 2
  hosts_per_rack: 2
  n_elephants: 1
  n_mice: 2
  max_sim_time_ns: 500000000
"""


class TestSweepCli:
    """The ``sweep list/plan/run`` subcommand family."""

    @pytest.fixture
    def spec_path(self, tmp_path: Path) -> Path:
        path = tmp_path / "tiny.yaml"
        path.write_text(TINY_SWEEP, encoding="utf-8")
        return path

    def test_sweep_list_names_scenarios_and_fields(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "leafspine_mix" in out
        assert "leafspine_incast" in out
        assert "ecn_threshold_packets" in out

    def test_sweep_plan_prints_compiled_units(self, spec_path, capsys):
        assert main(["sweep", "plan", str(spec_path),
                     "--scale", "0.05", "--seed", "3"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["experiment"] == "sweep:tiny"
        assert plan["n_units"] == 2
        ids = [u["unit_id"] for u in plan["units"]]
        assert ids == ["ecn_threshold_packets=8",
                       "ecn_threshold_packets=65"]
        keys = {u["cache_key"] for u in plan["units"]}
        assert len(keys) == 2

    def test_sweep_run_json_round_trip(self, spec_path, tmp_path: Path,
                                       capsys):
        json_dir = tmp_path / "out"
        code = main(["sweep", "run", str(spec_path), "--scale", "0.05",
                     "--seed", "3", "--jobs", "1", "--no-cache",
                     "--json-dir", str(json_dir)])
        assert code == 0
        doc = json.loads(
            (json_dir / "sweep:tiny.json").read_text("utf-8"))
        assert doc["name"] == "sweep:tiny"
        assert doc["data"]["merged_fct"]["n_flows"] > 0
        report = json.loads(
            (json_dir / "run_report.json").read_text("utf-8"))
        assert report["n_units"] == 2
        out = capsys.readouterr().out
        assert "Per-flow FCT vs grid point" in out
        assert "Run report" in out

    def test_sweep_run_journal_then_resume(self, spec_path,
                                           tmp_path: Path, capsys):
        journal = tmp_path / "j.jsonl"
        cache_dir = tmp_path / "cache"
        base = ["sweep", "run", str(spec_path), "--scale", "0.05",
                "--seed", "3", "--jobs", "1",
                "--cache-dir", str(cache_dir)]
        assert main(base + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        json_dir = tmp_path / "out"
        code = main(base + ["--resume", str(journal),
                            "--json-dir", str(json_dir)])
        assert code == 0
        report = json.loads(
            (json_dir / "run_report.json").read_text("utf-8"))
        assert report["resume"]["resumed"] is True
        assert report["cache_hits"] == report["n_units"]

    def test_sweep_resume_wrong_spec_rejected(self, spec_path,
                                              tmp_path: Path, capsys):
        journal = tmp_path / "j.jsonl"
        cache_dir = tmp_path / "cache"
        assert main(["sweep", "run", str(spec_path), "--scale", "0.05",
                     "--seed", "3", "--jobs", "1",
                     "--cache-dir", str(cache_dir),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        other = tmp_path / "other.yaml"
        other.write_text(TINY_SWEEP.replace("name: tiny", "name: other"),
                         encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "run", str(other), "--jobs", "1",
                  "--cache-dir", str(cache_dir),
                  "--resume", str(journal)])
        assert excinfo.value.code == 2
        assert "not this sweep" in capsys.readouterr().err

    def test_main_runner_redirects_sweep_journals(self, spec_path,
                                                  tmp_path: Path, capsys):
        journal = tmp_path / "j.jsonl"
        cache_dir = tmp_path / "cache"
        assert main(["sweep", "run", str(spec_path), "--scale", "0.05",
                     "--seed", "3", "--jobs", "1",
                     "--cache-dir", str(cache_dir),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["--resume", str(journal),
                  "--cache-dir", str(cache_dir)])
        assert excinfo.value.code == 2
        assert "sweep run" in capsys.readouterr().err

    def test_invalid_spec_rejected(self, tmp_path: Path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nscenario: leafspine_mix\n"
                       "axes:\n  bogus: [1]\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "plan", str(bad)])
        assert excinfo.value.code == 2
        assert "invalid sweep spec" in capsys.readouterr().err

    def test_missing_spec_file_rejected(self, tmp_path: Path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "plan", str(tmp_path / "absent.yaml")])
        assert excinfo.value.code == 2
        assert "cannot read sweep spec" in capsys.readouterr().err


class TestCacheServerFlag:
    """``--cache-server`` validation: parse like ``--listen``, reject
    the ``--no-cache`` combination eagerly (before any campaign work)."""

    def test_flag_parses(self):
        args = build_parser().parse_args(
            ["--cache-server", "cachehost:8750"])
        assert args.cache_server == "cachehost:8750"
        assert build_parser().parse_args([]).cache_server is None

    @pytest.mark.parametrize("address", ["nope:", "host:banana",
                                         "host:99999", ":::"])
    def test_unparseable_address_rejected(self, address, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--cache-server", address])
        assert excinfo.value.code == 2
        assert "--cache-server" in capsys.readouterr().err

    def test_no_cache_combination_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-e", "fig1", "--no-cache",
                  "--cache-server", "127.0.0.1:8750"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--cache-server" in err and "--no-cache" in err

    def test_sweep_and_verdict_share_the_validation(self, tmp_path,
                                                    capsys):
        spec = tmp_path / "s.yaml"
        spec.write_text("name: x\nscenario: leafspine_mix\n"
                        "axes:\n  flows: [10]\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "run", str(spec), "--no-cache",
                  "--cache-server", "127.0.0.1:8750"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["verdict", "--cache-server", "not an address"])
        assert excinfo.value.code == 2

    def test_worker_cli_needs_cache_dir_for_cache_server(self, capsys):
        from repro.tools.worker import EXIT_USAGE
        from repro.tools.worker import main as worker_main
        assert worker_main(["--connect", "127.0.0.1:1",
                            "--cache-server", "127.0.0.1:2"]) \
            == EXIT_USAGE
        assert "--cache-dir" in capsys.readouterr().err
        assert worker_main(["--connect", "127.0.0.1:1", "--no-cache",
                            "--cache-dir", "/tmp/x",
                            "--cache-server", "127.0.0.1:2"]) \
            == EXIT_USAGE
        assert "--no-cache" in capsys.readouterr().err


class TestFailFastRunReport:
    """Every CLI surface runs the one campaign spine, so a fail-fast
    abort (``CampaignError``, exit 1) leaves ``run_report.json`` — the
    failures table — in ``--json-dir`` whichever surface started it."""

    ALWAYS_FAIL = '[{"unit":"*","mode":"error","times":-1}]'

    @pytest.mark.parametrize("surface", ["main", "sweep", "verdict"])
    def test_failed_campaign_still_writes_run_report(
            self, surface, tmp_path: Path, capsys, monkeypatch):
        spec = tmp_path / "tiny.yaml"
        spec.write_text(TINY_SWEEP, encoding="utf-8")
        argv = {"main": ["-e", "fig6"],
                "sweep": ["sweep", "run", str(spec)],
                "verdict": ["verdict", "--schemes", "dctcp", "--flows",
                            "40", "--burst-ms", "2", "--no-mix"]}[surface]
        json_dir = tmp_path / "out"
        monkeypatch.setenv("REPRO_FAULTS", self.ALWAYS_FAIL)
        code = main(argv + ["--scale", "0.05", "--retries", "0",
                            "--jobs", "1", "--no-cache",
                            "--json-dir", str(json_dir)])
        assert code == 1
        assert "see the failures table above" in capsys.readouterr().err
        report = json.loads((json_dir / "run_report.json").read_text())
        assert report["failures"]


class TestClosedPipe:
    """``python -m repro.experiments ... | head`` ends like a process
    SIGPIPE killed: exit 128 + 13, no traceback, whether the write that
    finds the pipe closed is a ``print`` (unbuffered) or the final
    flush. So do the runner module run directly, the installed console
    script and every tool that prints."""

    REPO = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", [
        ["repro.experiments", "--list"],
        ["repro.experiments", "sweep", "plan", "examples/sweeps/ecn_k.yaml"],
        ["repro.experiments.runner", "--list"],
        ["repro.tools.trace_view", "--service", "video"],
        ["repro.tools.docstrings", "src/repro", "-v"]],
        ids=["list", "sweep-plan", "runner-list", "trace-view", "docstrings"])
    def test_exits_141_without_a_traceback(self, argv, unbuffered):
        self.assert_exits_141([sys.executable, "-m", *argv], unbuffered)

    def test_the_console_script_too(self):
        """``repro-experiments`` runs what ``pyproject.toml`` names."""
        pyproject = (self.REPO / "pyproject.toml").read_text()
        target = re.search(r'^repro-experiments = "(.+)"$', pyproject,
                           re.MULTILINE).group(1)
        module, _, function = target.partition(":")
        self.assert_exits_141(
            [sys.executable, "-c", f"import {module}; {module}.{function}()",
             "--list"], "")

    def assert_exits_141(self, command: list, unbuffered: str) -> None:
        env = {"PYTHONPATH": str(self.REPO / "src"), "PATH": "/usr/bin:/bin"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=self.REPO,
            env=env)
        proc.stdout.close()  # the reader is gone before the first write
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141, err
        assert "Traceback" not in err and "BrokenPipeError" not in err
