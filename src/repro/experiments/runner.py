"""Command-line entry point: run any reproduced table/figure.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments --experiment fig5 --scale 0.25
    python -m repro.experiments --all --scale 0.1 --jobs 4
    python -m repro.experiments --all --jobs 8 --retries 2 \
        --unit-timeout 600 --keep-going
    python -m repro.experiments sweep list
    python -m repro.experiments sweep plan examples/sweeps/ecn_k.yaml
    python -m repro.experiments sweep run examples/sweeps/ecn_k.yaml \
        --jobs 4 --journal sweep.jsonl
    python -m repro.experiments verdict --schemes dctcp,ictcp \
        --flows 50,150 --jobs 4

The ``verdict`` subcommand runs the mitigation-scheme comparison
campaign (:mod:`repro.experiments.verdict`): scheme x flow count x
burst length through the engine, with ``--schemes`` / ``--flows`` /
``--burst-ms`` / ``--no-mix`` trimming the grid, ``--plan`` printing
the compiled units without running, and the same engine flags
(``--jobs``, ``--resume``, caching, journaling) as everything else.

The ``sweep`` subcommand runs declarative YAML parameter sweeps
(:mod:`repro.experiments.sweep`) through the same engine: ``sweep list``
shows the sweepable scenarios and their fields, ``sweep plan`` prints the
compiled unit plan (ids and cache keys) without running anything, and
``sweep run`` executes the grid with every engine flag available —
including ``--resume``, which needs the spec file again (the journal
records unit identities, not the spec).

Experiments execute through :mod:`repro.experiments.engine`: independent
trials fan out across worker processes (``--jobs``) and completed units
are memoized on disk (``--cache-dir`` / ``--no-cache``); a structured run
report is printed after the results. Campaigns tolerate partial failure:
failed units retry (``--retries``), hung units are reaped
(``--unit-timeout``), and ``--keep-going`` trades a permanent unit
failure for the loss of only the experiments that merge it (exit code 1,
failures recorded in ``run_report.json``). The ``REPRO_FAULTS``
environment variable injects deterministic chaos faults (see
:mod:`repro.experiments.engine.faults`).

Campaigns are crash-safe. ``--journal PATH`` appends every unit state
transition to an fsynced JSONL journal; SIGTERM or Ctrl-C preempt the
campaign gracefully (in-flight units are killed *uncharged*, spill files
swept, a final checkpoint flushed) and the process exits with the
conventional ``128 + signum`` (143 for SIGTERM, 130 for SIGINT).
``--resume PATH`` — pointed at the journal or at a ``run_report.json``
that references one — verifies the campaign identity hash, reloads
completed payloads from the result cache, carries charged attempt counts
over, and runs only the remainder; the merged output is byte-identical
to an uninterrupted run. ``--checkpoint-interval`` batches journal
fsyncs, and ``--cache-quota`` bounds the result cache with LRU eviction.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.analysis.export import write_result, write_run_report
from repro.experiments.engine.cache import (_tiered_cache, finite_positive,
                                            parse_hostport, parse_size)
from repro.experiments.engine.core import (EXPERIMENT_MODULES, CampaignError,
                                           CampaignInterrupted,
                                           run_experiments)
from repro.experiments.engine.faults import faults_from_env
from repro.experiments.engine.journal import (JournalError,
                                              ResumeMismatchError,
                                              load_resume_state)

if TYPE_CHECKING:
    from repro.experiments.engine.distributed import DistributedBackend

#: Exit code for SIGINT, matching shell convention (128 + SIGINT).
EXIT_INTERRUPTED = 130

#: The runnable experiments: the engine's registry itself, so the CLI and
#: the engine can never disagree about what exists.
EXPERIMENTS = EXPERIMENT_MODULES


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of 'Understanding "
                    "Incast Bursts in Modern Datacenters' (IMC 2024)")
    parser.add_argument("--experiment", "-e", choices=sorted(EXPERIMENTS),
                        action="append", default=None,
                        help="experiment(s) to run; repeatable")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    _add_engine_flags(parser)
    return parser


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Install the engine-execution flags shared by the main experiment
    runner and the ``sweep run`` / ``verdict`` subcommands, so every
    surface accepts the identical cache/journal/fan-out vocabulary."""
    parser.add_argument("--scale", type=finite_positive, default=None,
                        help="workload scale factor (default 1.0 = paper "
                             "scale; a --resume run defaults to the "
                             "journal's recorded scale)")
    parser.add_argument("--seed", type=int, default=None,
                        help="root random seed (default 0; a --resume run "
                             "defaults to the journal's recorded seed)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for independent trials "
                             "(default: all CPUs; 1 = serial in-process)")
    parser.add_argument("--backend", choices=("local", "distributed"),
                        default="local",
                        help="where units execute: 'local' (default) "
                             "fans out over in-machine worker processes; "
                             "'distributed' starts a TCP coordinator "
                             "that serves units to "
                             "'python -m repro.tools.worker' clients — "
                             "same cache keys, journal and results, so "
                             "output is byte-identical either way")
    parser.add_argument("--listen", type=str, default=None,
                        metavar="HOST:PORT",
                        help="coordinator bind address for --backend "
                             "distributed (e.g. 0.0.0.0:7777; port 0 "
                             "picks a free port, printed to stderr)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="with --backend distributed: also spawn N "
                             "local worker subprocesses pointed at the "
                             "coordinator (they share --cache-dir and "
                             "are reaped when the campaign ends)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result "
                             "cache")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--cache-quota", type=str, default=None,
                        metavar="SIZE",
                        help="evict least-recently-used result-cache "
                             "entries to keep the stored total under SIZE "
                             "(e.g. 512M, 2G; binary units)")
    parser.add_argument("--cache-server", type=str, default=None,
                        metavar="HOST:PORT",
                        help="also read through / write behind to a "
                             "shared cache server (python -m "
                             "repro.tools.cacheserver) so fleet members "
                             "share finished units; an unreachable, "
                             "slow or corrupt server degrades to the "
                             "local cache without changing results")
    parser.add_argument("--journal", type=str, default=None, metavar="PATH",
                        help="append every unit state transition to a "
                             "crash-safe fsynced JSONL journal at PATH; "
                             "an interrupted campaign can then be "
                             "continued with --resume")
    parser.add_argument("--resume", type=str, default=None, metavar="PATH",
                        help="resume an interrupted campaign from its "
                             "journal (or from a run_report.json that "
                             "points at one): completed units load from "
                             "the result cache, charged attempt counts "
                             "carry over, only the remainder runs; the "
                             "plan must hash to the same campaign "
                             "identity (experiments, scale, seed, "
                             "telemetry, code version)")
    parser.add_argument("--checkpoint-interval", type=finite_positive,
                        default=None,
                        metavar="SECONDS",
                        help="batch journal fsyncs to at most one per "
                             "this many seconds (default: fsync every "
                             "record)")
    parser.add_argument("--retries", type=int, default=1,
                        help="failed attempts retried per work unit, with "
                             "exponential backoff, before the unit fails "
                             "permanently (default: 1)")
    parser.add_argument("--unit-timeout", type=finite_positive, default=None,
                        metavar="SECONDS",
                        help="per-unit wall-clock budget; a unit past it "
                             "is charged a failed attempt and its worker "
                             "pool is respawned (requires --jobs >= 2)")
    degradation = parser.add_mutually_exclusive_group()
    degradation.add_argument(
        "--keep-going", dest="keep_going", action="store_true",
        help="on a permanent unit failure, still merge every experiment "
             "that does not depend on it; failed experiments land in the "
             "run report's 'failures' section and the exit code is 1")
    degradation.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="abort the whole campaign on the first permanent unit "
             "failure (default)")
    parser.set_defaults(keep_going=False)
    parser.add_argument("--json-dir", type=str, default=None,
                        help="also write each result (and the run report) "
                             "as JSON into this directory")
    parser.add_argument("--telemetry", action="store_true",
                        help="record Millisampler-style in-sim telemetry "
                             "(per-ms host/queue series); captures land in "
                             "the run report's 'telemetry' section — "
                             "inspect with repro.tools.telemetry_view")
    parser.add_argument("--telemetry-interval-us", type=finite_positive,
                        default=None,
                        help="telemetry sampling interval in microseconds "
                             "(default 1000 = Millisampler's 1 ms)")


def _validate_engine_args(parser: argparse.ArgumentParser,
                          args: argparse.Namespace) -> Optional[int]:
    """Cross-flag validation shared by every CLI surface.

    Returns the parsed ``--cache-quota`` in bytes (``None`` when unset);
    every violation exits through ``parser.error``. (The
    ``--cache-server`` rules live with the cache stack itself, see
    :func:`repro.experiments.engine.cache._tiered_cache`.)
    """
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.unit_timeout is not None and args.jobs == 1 \
            and args.backend == "local":
        parser.error("--unit-timeout requires --jobs >= 2 (a hung unit "
                     "cannot be interrupted in-process)")
    if args.backend != "distributed":
        if args.listen is not None:
            parser.error("--listen requires --backend distributed")
        if args.workers:
            parser.error("--workers requires --backend distributed")
    else:
        if args.workers < 0:
            parser.error(f"--workers must be >= 0, got {args.workers}")
        if args.listen is not None:
            try:
                parse_hostport(args.listen)
            except ValueError as exc:
                parser.error(f"--listen: {exc}")
        if args.listen is None and args.workers == 0:
            parser.error("--backend distributed needs --listen HOST:PORT "
                         "(for external workers), --workers N (to spawn "
                         "local ones), or both")
    if (args.cache_dir is not None and not args.no_cache
            and Path(args.cache_dir).exists()
            and not Path(args.cache_dir).is_dir()):
        parser.error(f"--cache-dir {args.cache_dir} is not a directory")
    if args.resume and args.no_cache:
        parser.error("--resume needs the result cache (it is the durable "
                     "store completed units reload from); drop --no-cache")
    if (args.checkpoint_interval is not None and not args.journal
            and not args.resume):
        parser.error("--checkpoint-interval requires --journal or "
                     "--resume (there is no journal to batch)")
    quota_bytes = None
    if args.cache_quota is not None:
        try:
            quota_bytes = parse_size(args.cache_quota)
        except ValueError as exc:
            parser.error(f"--cache-quota: {exc}")
    return quota_bytes


def _build_backend(args: argparse.Namespace
                   ) -> Optional[DistributedBackend]:
    """The executor backend the flags ask for (``None`` = classic local
    selection). The distributed coordinator announces its bound address
    on stderr so external workers know where to connect."""
    if args.backend != "distributed":
        return None
    # The coordinator (sockets, selectors, subprocess) loads for the
    # campaigns that asked for one.
    from repro.experiments.engine.distributed import DistributedBackend

    def announce(host: str, port: int) -> None:
        print(f"coordinator listening on {host}:{port}", file=sys.stderr)

    return DistributedBackend(
        listen=args.listen if args.listen is not None else ("127.0.0.1",
                                                            0),
        spawn_workers=args.workers,
        on_listening=announce)


def _run_campaign(parser: argparse.ArgumentParser,
                  args: argparse.Namespace, names: list[str],
                  extra_modules: Optional[dict], resume_hint: str) -> int:
    """The one campaign spine behind every CLI surface; returns the
    process exit code.

    ``main``, ``sweep run`` and ``verdict`` differ only in the plan they
    hand over: ``names`` plus, for compiled campaigns, the
    ``extra_modules`` adapters that plan and merge them (``None`` for
    the registry experiments). Everything else is decided here, once:
    engine-flag validation, ``$REPRO_FAULTS``, resume-state loading and
    the defaults a journal supplies, cache and backend construction, the
    engine call, the exit codes (143/130 preempted, 2 resume mismatch,
    1 failed units) and the result / run-report printing and
    ``--json-dir`` writes. ``resume_hint`` is how this surface spells
    "continue from a journal" (``--resume``, ``sweep run SPEC
    --resume``, ...), printed when a journaled campaign is preempted.
    """
    quota_bytes = _validate_engine_args(parser, args)
    try:
        faults = faults_from_env()
    except ValueError as exc:
        parser.error(f"$REPRO_FAULTS: {exc}")
    resume_state = None
    if args.resume:
        try:
            resume_state = load_resume_state(args.resume)
        except JournalError as exc:
            parser.error(f"--resume: {exc}")

    # A --resume leg re-runs the journal's recorded campaign: experiment
    # list, scale, seed and telemetry default to the header's values, so
    # `--resume journal.jsonl` alone is a complete invocation. Explicit
    # flags still win (the identity check catches any real drift).
    scale, seed = 1.0, 0
    telemetry = args.telemetry
    interval_ns = None
    if resume_state is not None:
        recorded = list(resume_state.names)
        if extra_modules is not None and recorded != names:
            parser.error(f"--resume: journal records campaign {recorded}, "
                         f"not this {names[0]} campaign; resume a journal "
                         f"through the surface (and spec file) that "
                         f"recorded it")
        names = names or recorded
        scale, seed = resume_state.scale, resume_state.seed
        if resume_state.telemetry is not None:
            telemetry = True
            interval_ns = resume_state.telemetry.get("interval_ns")
    if extra_modules is None \
            and any(name.startswith("sweep:") for name in names):
        parser.error("this journal records a sweep campaign; resume it "
                     "with: python -m repro.experiments sweep run "
                     "SPEC.yaml --resume PATH (the spec file is needed "
                     "to recompile the plan)")
    if not names:
        print("nothing to run: pass --experiment NAME, --all, or --list",
              file=sys.stderr)
        return 2
    if args.scale is not None:
        scale = args.scale
    if args.seed is not None:
        seed = args.seed
    if args.telemetry_interval_us is not None:
        interval_ns = int(args.telemetry_interval_us * 1000)

    try:
        cache = _tiered_cache(args.cache_dir, enabled=not args.no_cache,
                              server=args.cache_server,
                              quota_bytes=quota_bytes, faults=faults)
    except ValueError as exc:
        parser.error(str(exc))
    json_dir = Path(args.json_dir) if args.json_dir is not None else None
    try:
        results, report = run_experiments(
            names, scale=scale, seed=seed, jobs=args.jobs,
            backend=_build_backend(args),
            cache=cache, telemetry=telemetry,
            telemetry_interval_ns=interval_ns,
            unit_timeout_s=args.unit_timeout, retries=args.retries,
            keep_going=args.keep_going, faults=faults,
            journal_path=args.journal,
            checkpoint_interval_s=args.checkpoint_interval,
            resume_from=resume_state, handle_signals=True,
            extra_modules=extra_modules)
    except CampaignInterrupted as exc:
        print(f"\ninterrupted: {exc}; worker pool reaped, journal "
              f"checkpoint flushed", file=sys.stderr)
        if exc.report is not None and exc.report.resume:
            print(f"resume with: {resume_hint} "
                  f"{exc.report.resume['journal']}", file=sys.stderr)
            if json_dir is not None:
                path = write_run_report(exc.report, json_dir)
                print(f"[wrote {path}]", file=sys.stderr)
        return 128 + int(exc.signum)
    except KeyboardInterrupt:
        print("\ninterrupted: campaign cancelled, worker pool reaped",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except ResumeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CampaignError as exc:
        print(exc.report.render())
        if json_dir is not None:
            path = write_run_report(exc.report, json_dir)
            print(f"[wrote {path}]")
        print(f"error: {exc} (see the failures table above)",
              file=sys.stderr)
        return 1

    for name in names:
        if name not in results:  # lost to a failed unit under --keep-going
            print(f"[{name}: FAILED — no result; see the failures table "
                  f"below]\n")
            continue
        print(results[name].render())
        if json_dir is not None:
            path = write_result(results[name], json_dir)
            print(f"[wrote {path}]")
        print()
    print(report.render())
    if json_dir is not None:
        path = write_run_report(report, json_dir)
        print(f"[wrote {path}]")
    if report.failures:
        print(f"error: {report.failed} unit(s) failed permanently; "
              f"experiments lost: {', '.join(report.failed_experiments)}",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "verdict":
        return verdict_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name, module in EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip()
            print(f"{name:12s} {doc.splitlines()[0] if doc else ''}")
        return 0
    names = list(EXPERIMENTS) if args.all else (args.experiment or [])
    return _run_campaign(parser, args, names, None, "--resume")


def build_sweep_parser() -> argparse.ArgumentParser:
    """Parser for the ``sweep`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description="Compile and run declarative YAML parameter sweeps "
                    "through the experiment engine")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser(
        "list", help="list sweepable scenarios and their fields")
    plan = commands.add_parser(
        "plan", help="print the compiled unit plan without running")
    plan.add_argument("spec", help="YAML sweep spec file")
    plan.add_argument("--scale", type=finite_positive, default=1.0,
                      help="workload scale factor (default 1.0)")
    plan.add_argument("--seed", type=int, default=0,
                      help="root random seed (default 0)")
    run = commands.add_parser(
        "run", help="execute the sweep grid through the engine")
    run.add_argument("spec", help="YAML sweep spec file")
    _add_engine_flags(run)
    return parser


def _load_spec(parser: argparse.ArgumentParser, path: str):
    """Load a YAML spec, converting every failure mode to a parser
    error (missing file, broken YAML, invalid spec fields)."""
    from repro.experiments import sweep as sweep_mod
    try:
        return sweep_mod.load_sweep_file(path)
    except OSError as exc:
        parser.error(f"cannot read sweep spec {path}: {exc}")
    except Exception as exc:  # yaml + spec validation errors
        parser.error(f"invalid sweep spec {path}: {exc}")


def _sweep_list() -> int:
    """Print each sweepable scenario with its overridable fields."""
    from repro.experiments import sweep as sweep_mod
    for name in sorted(sweep_mod.SCENARIOS):
        _, executor = sweep_mod.load_scenario(name)
        doc = (executor.__doc__ or "").strip().splitlines()
        print(f"{name:18s} {doc[0] if doc else ''}")
        print(f"{'':18s} fields: "
              f"{', '.join(sweep_mod.scenario_fields(name))}")
    return 0


def _sweep_run(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    """Execute ``sweep run``: bind the spec into the engine as a one-name
    campaign and hand it to the spine."""
    from repro.experiments import sweep as sweep_mod
    spec = _load_spec(parser, args.spec)
    name = spec.experiment_name
    return _run_campaign(parser, args, [name],
                         {name: sweep_mod.SweepExperiment(spec)},
                         f"sweep run {args.spec} --resume")


def sweep_main(argv: list[str]) -> int:
    """Entry point for ``python -m repro.experiments sweep ...``."""
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _sweep_list()
    if args.command == "plan":
        from repro.experiments import sweep as sweep_mod
        spec = _load_spec(parser, args.spec)
        print(sweep_mod.plan_document(spec, args.scale, args.seed))
        return 0
    return _sweep_run(parser, args)


def build_verdict_parser() -> argparse.ArgumentParser:
    """Parser for the ``verdict`` subcommand (the cross-scheme campaign
    with a CLI-trimmable grid plus every engine flag)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments verdict",
        description="Run the mitigation-scheme verdict campaign: "
                    "scheme x flow count x burst length through the "
                    "experiment engine, with the mode-boundary and "
                    "FCT-cost comparison tables")
    parser.add_argument("--schemes", type=str, default=None,
                        help="comma-separated scheme names to compare "
                             "(default: the whole registry zoo)")
    parser.add_argument("--flows", type=str, default=None,
                        help="comma-separated incast degrees "
                             "(default: 50,150,400)")
    parser.add_argument("--burst-ms", type=str, default=None,
                        help="comma-separated burst lengths in ms "
                             "(default: 2,15)")
    parser.add_argument("--no-mix", action="store_true",
                        help="skip the per-scheme elephant/mice FCT-cost "
                             "scenario")
    parser.add_argument("--plan", action="store_true",
                        help="print the compiled unit plan (ids and "
                             "cache keys) without running")
    _add_engine_flags(parser)
    return parser


def _verdict_grid(parser: argparse.ArgumentParser,
                  args: argparse.Namespace):
    """Build the (possibly trimmed) grid the flags describe; every
    malformed value exits through ``parser.error``."""
    from repro.experiments import verdict as verdict_mod

    def split(text: str) -> list[str]:
        return [part.strip() for part in text.split(",") if part.strip()]

    kwargs: dict = {}
    if args.schemes is not None:
        kwargs["schemes"] = tuple(split(args.schemes))
    if args.flows is not None:
        try:
            kwargs["flow_counts"] = tuple(int(n) for n in split(args.flows))
        except ValueError:
            parser.error(f"--flows must be comma-separated integers, "
                         f"got {args.flows!r}")
    if args.burst_ms is not None:
        try:
            kwargs["burst_ms"] = tuple(finite_positive(b)
                                       for b in split(args.burst_ms))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"argument --burst-ms: {exc}")
    if args.no_mix:
        kwargs["mix"] = False
    try:
        return verdict_mod.VerdictGrid(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def verdict_main(argv: list[str]) -> int:
    """Entry point for ``python -m repro.experiments verdict ...``: the
    (possibly trimmed) grid as a one-name campaign through the spine."""
    from repro.experiments import verdict as verdict_mod
    parser = build_verdict_parser()
    args = parser.parse_args(argv)
    grid = _verdict_grid(parser, args)
    if args.plan:
        import json as json_mod
        scale = args.scale if args.scale is not None else 1.0
        seed = args.seed if args.seed is not None else 0
        plan = verdict_mod.grid_units(grid, scale, seed)
        print(json_mod.dumps({
            "experiment": "verdict", "scale": scale, "seed": seed,
            "n_units": len(plan),
            "units": [{"unit_id": u.unit_id, "cache_key": u.cache_key(),
                       "params": u.params} for u in plan],
        }, indent=2, sort_keys=True))
        return 0
    return _run_campaign(parser, args, ["verdict"],
                         {"verdict": verdict_mod.VerdictExperiment(grid)},
                         "verdict --resume")


if __name__ == "__main__":
    from repro._cli import exit_after
    exit_after(main)
