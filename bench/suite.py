"""Run workloads in worker subprocesses and assemble their results.

One workload at a time, one busy process at a time. A measuring run is
a few set-up-only interpreters, the timed one, and a few more set-up-only
ones, each between two groups of reference-loop samples
(:mod:`bench.hostnoise`); a traced run is one interpreter. The probes of
group C belong to no workload: the suite runs them once, a single traced
run (``--workload W --trace 1``) runs them itself because it must report
every per-layer metric. All scratch files live under
``<checkout>/.bench_tmp``, which is removed before returning.
"""

from __future__ import annotations

import array
import contextlib
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

from bench import hostnoise
from bench.manifest import (END_TO_END, GROUP_B, PER_LAYER, ROOT,
                            SETUPS_PER_SIDE, UNAVAILABLE, WORKLOADS)

#: A worker that has not answered by now is killed; the contract allows a
#: run 180 s in all.
WORKER_TIMEOUT_S = 150
#: Workers are single-threaded in fact, not only in Python: numpy's
#: OpenBLAS otherwise starts a spinning second thread at import, which
#: made ``setup_s`` bimodal (0.15 s when the other vCPU was free for it,
#: 0.21 s when not) and put a second busy thread beside the timed passes.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SCRATCH = ROOT / ".bench_tmp"


class WorkerFailed(RuntimeError):
    """A worker exited non-zero or printed no result."""


def _spread_subdirectories(path: Path) -> None:
    """Ask ext4 to place each new subdirectory of ``path`` in a block
    group of its own (``chattr +T``); a no-op on other filesystems.

    ext4 keeps an inode it freed in the last one to five minutes out of
    use and steps over it on every allocation in that block group. A
    scratch area that creates and removes the same few thousand files
    over and over therefore makes file creation *in its own block group*
    10-20 times dearer for as long as it keeps going (392 creations:
    12-24 ms in a quiet group, 250-290 ms in the churned one), in steps
    that come and go with the minutes - which ``sweep_cold``, one file
    per unit, reported as a 40 % bimodal swing of ``wall_s``. Spread
    out, every run and every pass works in a quiet group, as a user's
    cache directory does.
    """
    get_flags, set_flags, topdir = 0x80086601, 0x40086602, 0x00020000
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        flags = array.array("l", [0])
        fcntl.ioctl(fd, get_flags, flags)
        flags[0] |= topdir
        fcntl.ioctl(fd, set_flags, flags)
    except OSError:  # not ext2/3/4, or not ours to flag
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def _scratch(prefix: str) -> Iterator[Path]:
    """A directory under :data:`SCRATCH`, removed on exit together with
    :data:`SCRATCH` itself once that is empty."""
    SCRATCH.mkdir(exist_ok=True)
    _spread_subdirectories(SCRATCH)
    tmp = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=SCRATCH))
    _spread_subdirectories(tmp)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run is using it
            SCRATCH.rmdir()


def _spawn(mode: str, seed: int, tmp: Path, workload: str | None = None,
           seconds: float = 0.0, quick: bool = False) -> dict:
    cmd = [sys.executable, "-m", "bench.worker", "--mode", mode,
           "--seed", str(seed), "--seconds", str(seconds),
           "--tmp", str(tmp), "--spawned-at", repr(time.time())]
    if workload:
        cmd += ["--workload", workload]
    if quick:
        cmd.append("--quick")
    what = f"{workload or 'probes'} ({mode})"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S,
                              env={**os.environ, **ONE_THREAD})
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{what} worker timed out after "
                           f"{WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{what} worker exited {proc.returncode} "
                           f"without a result")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise WorkerFailed(f"{what} worker printed no JSON result: "
                           f"{lines[-1][:200]!r}") from exc


def _checked(workload: str, seed: int, worker: dict, noise: dict) -> dict:
    """What a measuring run and a traced run have in common."""
    return {
        "workload": workload, "seed": seed,
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"], "failed": worker["failed"],
        "failed_share": worker["failed"] / worker["attempted"],
        "problems": worker["problems"], "digest": worker["digest"],
        "noisy": noise["noisy"],
        "spin_ms": {side: noise[side] for side in ("before", "after")},
    }


def measure(workload: str, seed: int, seconds: float,
            quick: bool = False) -> dict:
    """One measuring run of one workload: the end-to-end metrics."""
    per_side = 1 if quick else SETUPS_PER_SIDE
    last_group = hostnoise.group()
    setups: list[float] = []
    rated: list[float] = []

    def spawn(mode: str, tmp: Path) -> dict:
        """A worker between two reference groups; its set-up time is a
        ``setup_s`` sample unless it went on to the timed passes (the
        group after those is too far from its set-up to rate it)."""
        nonlocal last_group
        worker = _spawn(mode, seed, tmp, workload, seconds, quick)
        before, last_group = last_group, hostnoise.group()
        if mode == "setup":
            setups.append(worker["setup_s"])
            rated.append(hostnoise.rate(worker["setup_s"], before,
                                        last_group))
        return worker

    with _scratch(workload) as tmp:
        for _ in range(per_side):
            spawn("setup", tmp)
        worker = spawn("timed", tmp)
        for _ in range(per_side):
            spawn("setup", tmp)

    run = _checked(workload, seed, worker,
                   hostnoise.record(worker["passes"]["reference"]))
    run["short"] = worker["short"]
    run["end_to_end"] = {
        "wall_s": worker["wall_s"]["rated"],
        "cpu_s": worker["cpu_s"]["rated"],
        "peak_rss_mb": worker["peak_rss_mb"],
        "setup_s": statistics.median(rated),
    }
    run["detail"] = {"wall_s": worker["wall_s"], "cpu_s": worker["cpu_s"],
                     "setup_s": {"rated": rated, "unrated": setups},
                     "passes": worker["passes"], "work": worker["work"]}
    return run


def run_probes(seed: int) -> dict:
    """Every group-C probe, once: ``{"values": ..., "errors": ...}``."""
    with _scratch("probes") as tmp:
        return _spawn("probes", seed, tmp)


def trace(workload: str, seed: int, with_probes: bool) -> dict:
    """One traced run of one workload: its per-layer metrics, and with
    ``with_probes`` the workload-independent probes beside them."""
    before = hostnoise.group()
    with _scratch(workload) as tmp:
        worker = _spawn("trace", seed, tmp, workload)
    after = hostnoise.group()
    run = _checked(workload, seed, worker,
                   hostnoise.record([before, after]))
    run["per_layer"] = dict(worker["per_layer"])
    run["per_layer"]["host.spin_ms"] = min(before + after) * 1e3
    run["trace"] = {k: worker[k] for k in
                    ("traced_wall_s", "untraced_wall_s", "self_s_sum")}
    if with_probes:
        probes = run_probes(seed)
        run["per_layer"].update(probes["values"])
        run["probe_errors"] = probes["errors"]
    return run


def contract_line(run: dict) -> str:
    """The one JSON object the ``BENCHMARK.json`` contract asks for on
    the last line of stdout."""
    if "end_to_end" in run:
        values, units = run["end_to_end"], END_TO_END
    else:
        values, units = run["per_layer"], PER_LAYER
    metrics = {name: {"value": (UNAVAILABLE if values[name] is None
                                else values[name]), "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": run["correct"],
                       "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def run_suite(seed: int, seconds: float, quick: bool) -> dict:
    """Every workload: a measuring run, then (unless ``quick``) a traced
    run; then the probes, once. Returns the suite document."""
    document: dict = {
        "schema": 2, "comparable": not quick, "seed": seed,
        "run_seconds": seconds, "host": hostnoise.host_record(),
        "workloads": {},
    }
    for name in WORKLOADS:
        print(f"[{name}] measuring ...", file=sys.stderr, flush=True)
        entry = measure(name, seed, seconds, quick)
        if entry["short"]:
            # Fewer passes than pinned: not the same statistic.
            document["comparable"] = False
        if not quick:
            print(f"[{name}] tracing ...", file=sys.stderr, flush=True)
            traced = trace(name, seed, with_probes=False)
            entry["traced"] = traced
            for key in ("attempted", "failed"):
                entry[key] += traced[key]
            entry["problems"] += [p for p in traced["problems"]
                                  if p not in entry["problems"]]
            entry["correct"] = entry["failed"] == 0
            entry["failed_share"] = entry["failed"] / entry["attempted"]
        document["workloads"][name] = entry
    if not quick:
        print("[probes] ...", file=sys.stderr, flush=True)
        document["probes"] = run_probes(seed)
        # Same definition as the probe (the two workloads' wall_s), from
        # the measuring runs' full pass counts instead of three passes.
        runs = document["workloads"]
        document["probes"]["values"]["telemetry.overhead_ratio"] = (
            runs["incast_telemetry"]["end_to_end"]["wall_s"]
            / runs["incast_steady"]["end_to_end"]["wall_s"])
    return document


def _shown(value) -> str:
    return ("null" if value is None else
            f"{value:d}" if isinstance(value, int) else f"{value:.6f}")


def render(document: dict) -> str:
    """Every metric by name with its unit: one block per workload, then
    the probes."""
    lines = [f"seed {document['seed']}  run_seconds "
             f"{document['run_seconds']}  comparable "
             f"{document['comparable']}  host {document['host']}"]
    for name, run in document["workloads"].items():
        lines.append(f"\n== {name} ==  digest {run['digest'][:16]}"
                     + ("  NOISY" if run["noisy"] else "")
                     + ("  SHORT" if run["short"] else ""))
        wall = run["detail"]["wall_s"]
        work = run["detail"]["work"]
        for metric, unit in END_TO_END.items():
            lines.append(f"  {metric:<28} {run['end_to_end'][metric]:>14.6f}"
                         f" {unit}")
        lines.append(f"  {'failed_share':<28} {run['failed_share']:>14.6f}"
                     f" ratio  ({run['failed']}/{run['attempted']})")
        lines.append(f"  {'wall_s unrated':<28} best {wall['best']:.4f}"
                     f"  median {wall['median']:.4f}  q1 {wall['q1']:.4f}"
                     f"  q3 {wall['q3']:.4f}  n {wall['n']}")
        lines.append(f"  {work['unit'] + '_per_wall_s':<28} "
                     f"{work['amount'] / run['end_to_end']['wall_s']:>14.1f}"
                     f" 1/s")
        lines.append(f"  {'host.spin_ms first/second half':<28} "
                     f"{run['spin_ms']['before']['median']:.3f} / "
                     f"{run['spin_ms']['after']['median']:.3f} ms")
        for problem in run["problems"]:
            lines.append(f"  CHECK FAILED: {problem}")
        traced = run.get("traced")
        if traced is None:
            continue
        for metric, unit in PER_LAYER.items():
            if metric in traced["per_layer"]:
                exact = "  (exact)" if metric in GROUP_B else ""
                lines.append(f"  {metric:<28} "
                             f"{_shown(traced['per_layer'][metric]):>14} "
                             f"{unit}{exact}")
        share = traced["trace"]["self_s_sum"] / traced["trace"][
            "traced_wall_s"]
        lines.append(f"  layer self_s sum / traced wall  {share:.3f}")
    probes = document.get("probes")
    if probes is not None:
        lines.append("\n== probes (no workload) ==")
        for metric, unit in PER_LAYER.items():
            if metric in probes["values"]:
                lines.append(f"  {metric:<28} "
                             f"{_shown(probes['values'][metric]):>14} {unit}")
        for probe, reason in probes["errors"].items():
            lines.append(f"  PROBE ERROR {probe}: {reason}")
    return "\n".join(lines)
