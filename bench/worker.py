"""``python -m bench.worker``: one measurement in one fresh interpreter.

The parent (:mod:`bench.suite`) starts a worker per measurement so that
every workload sees a cold process: ``--mode setup`` stops as soon as the
first pass could begin (a ``setup_s`` sample), ``--mode timed`` goes on to
one untimed warm-up pass and then the workload's pinned number of timed
passes, ``--mode trace`` does the traced run of one workload, and
``--mode probes`` runs the group-C probes, which belong to no workload.
The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from bench import hostnoise
from bench.manifest import GROUP_B, PASSES, ROOT, SRC, WORKLOADS


def _cpu_now() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _one_pass(workload) -> tuple[float, float, object, object]:
    """``(wall_s, cpu_s, raw, output)`` of one pass; only ``execute`` is
    inside the timed region."""
    ctx = workload.prepare()
    gc.collect()
    cpu0 = _cpu_now()
    t0 = time.perf_counter()
    raw = workload.execute(ctx)
    wall = time.perf_counter() - t0
    cpu = _cpu_now() - cpu0
    return wall, cpu, raw, workload.collect(ctx, raw)


def _summary(samples: list[float], groups: list[list[float]]) -> dict:
    """The rated median (the gated statistic) with the unrated detail
    beside it."""
    quartiles = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else [samples[0]] * 3)
    return {"rated": hostnoise.rated_median(samples, groups),
            "best": min(samples), "median": statistics.median(samples),
            "q1": quartiles[0], "q3": quartiles[2], "n": len(samples)}


def _timed(workload, checker, passes: int, seconds: float) -> dict:
    _, _, _, out = _one_pass(workload)  # warm-up: caches, lazy imports
    checker.check(out.document, out.facts)
    walls: list[float] = []
    cpus: list[float] = []
    groups = [hostnoise.group()]
    start = time.perf_counter()
    # Never fewer than one pass, whatever the ceiling says.
    while not walls or (len(walls) < passes
                        and time.perf_counter() - start < seconds):
        wall, cpu, _, out = _one_pass(workload)
        checker.check(out.document, out.facts)
        walls.append(wall)
        cpus.append(cpu)
        groups.append(hostnoise.group())
    amount, unit = workload.work(out)
    return {"wall_s": _summary(walls, groups),
            "cpu_s": _summary(cpus, groups),
            "short": len(walls) < passes,
            "passes": {"wall_s": walls, "cpu_s": cpus, "reference": groups},
            "work": {"amount": amount, "unit": unit}}


def _traced(workload, checker) -> dict:
    from bench.trace import EventCounters, profile_layers

    _, _, _, out = _one_pass(workload)  # warm-up
    checker.check(out.document, out.facts)
    untraced_wall, _, raw, out = _one_pass(workload)
    checker.check(out.document, out.facts)
    untraced_counts = workload.layer_counts(raw, out)

    ctx = workload.prepare()
    gc.collect()
    counters = EventCounters()
    with counters.counting():
        raw, traced_wall, self_s, calls = profile_layers(
            lambda: workload.execute(ctx))
    out = workload.collect(ctx, raw)
    checker.check(out.document, out.facts)
    counts = workload.layer_counts(raw, out)
    if counts != untraced_counts:
        checker.fail("group-B counts changed under tracing")

    # A layer the workload never enters has true counts of zero.
    metrics: dict = dict.fromkeys(GROUP_B, 0)
    metrics.update({f"{layer}.self_s": value
                    for layer, value in self_s.items()})
    metrics.update({f"{layer}.calls": calls[layer] for layer in
                    ("simcore", "netsim", "tcp", "telemetry", "engine")})
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics.update(counters.as_counts())
    metrics.update(counts)
    segments = metrics.get("tcp.segments", 0)
    metrics["tcp.ns_per_segment"] = (
        metrics["tcp.self_s"] / segments * 1e9 if segments else 0.0)
    return {"per_layer": metrics, "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "self_s_sum": sum(self_s.values())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "trace", "probes"))
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="every mode but probes needs one")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="ceiling on the timed passes of --mode timed")
    parser.add_argument("--quick", action="store_true",
                        help="one timed pass instead of the pinned count")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before spawn")
    args = parser.parse_args(argv)
    if (args.workload is None) != (args.mode == "probes"):
        parser.error("--workload goes with every mode but probes")

    # The checkout's own program, ahead of any installed copy; children
    # the program forks or spawns (pool, fleet probes) inherit it.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(SRC), str(ROOT), os.environ.get("PYTHONPATH"))))
    # Nothing may land outside the checkout, whatever the program's
    # defaults are.
    os.environ["TMPDIR"] = str(args.tmp)
    os.environ["REPRO_CACHE_DIR"] = str(args.tmp / "default-cache")

    if args.mode == "probes":
        from bench import probes
        values, errors = probes.run_all(args.tmp, args.seed)
        print(json.dumps({"values": values, "errors": errors}))
        return 0

    from bench.checks import Checker
    from bench.workloads import WORKLOADS as WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.tmp)
    workload.setup()
    result: dict = {"workload": args.workload, "seed": args.seed,
                    "setup_s": time.time() - args.spawned_at}
    if args.mode != "setup":
        checker = Checker(args.workload)
        workload.prime()
        if args.mode == "timed":
            passes = 1 if args.quick else PASSES[args.workload]
            result.update(_timed(workload, checker, passes, args.seconds))
        else:
            result.update(_traced(workload, checker))
        result.update(attempted=checker.attempted, failed=checker.failed,
                      problems=checker.problems, digest=checker.digest)
        # ru_maxrss is KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
