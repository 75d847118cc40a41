"""Command line of the benchmark.

    python3 -m bench --seed 0                  # the whole suite, ~3 min
    python3 -m bench --seed 0 --quick          # one pass each, no trace
    python3 -m bench --compare A.json B.json   # B against A's bounds
    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

The last form is one run of one workload, as ``BENCHMARK.json``'s
``command`` is driven: it prints one JSON object on the last line of
stdout. Exit status: 0 on success; 1 when an output check failed (the
result is still printed and written) or a ``--compare`` bound was
exceeded; 2 when there is nothing to measure or a worker died.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=manifest.WORKLOADS,
                        help="run only this workload and print the "
                             "contract's one-line JSON result")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; reaches every generated "
                             "input (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="ceiling on a run's timed passes (default: "
                             "BENCHMARK.json run_seconds, which the "
                             "pinned pass counts fit into)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced run "
                             "(per-layer metrics), 0 = end-to-end")
    parser.add_argument("--quick", action="store_true",
                        help="one timed pass per workload, no traced "
                             "run; output is tagged non-comparable")
    parser.add_argument("--out", type=Path,
                        default=Path("bench_result.json"),
                        help="where the suite writes its JSON document")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"),
                        help="apply BENCHMARK.json's bounds to two suite "
                             "documents instead of running anything")
    args = parser.parse_args(argv)

    try:
        contract = manifest.load()
    except manifest.ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.compare:
        from bench.compare import compare, load_document
        try:
            base, new = (load_document(p) for p in args.compare)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines, exceeded = compare(base, new, manifest.bounds(contract))
        print("\n".join(lines))
        return 1 if exceeded else 0

    if not (manifest.SRC / "repro").is_dir():
        print(f"error: no program to measure: {manifest.SRC / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2

    from bench import suite
    seconds = (args.seconds if args.seconds is not None
               else float(contract["run_seconds"]))
    try:
        if args.workload:
            if args.trace:
                run = suite.trace(args.workload, args.seed,
                                  with_probes=True)
            else:
                run = suite.measure(args.workload, args.seed, seconds,
                                    args.quick)
            for problem in run["problems"]:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            for probe, reason in run.get("probe_errors", {}).items():
                print(f"PROBE ERROR {probe}: {reason}", file=sys.stderr)
            if run["noisy"]:
                print(f"note: host speed shifted during the run: "
                      f"{run['spin_ms']}", file=sys.stderr)
            if run.get("short"):
                print(f"note: --seconds {seconds:g} ended the run after "
                      f"{run['detail']['wall_s']['n']} passes, fewer "
                      f"than pinned: not comparable", file=sys.stderr)
            print(suite.contract_line(run))
            return 0 if run["correct"] else 1
        document = suite.run_suite(args.seed, seconds, args.quick)
    except suite.WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(suite.render(document))
    print(f"[wrote {args.out}]")
    return 0 if all(run["correct"]
                    for run in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
