"""Golden-result fixtures for the regression suite.

Each golden case runs one experiment through the engine (or one cheap
ablation's executor) at a small fixed scale and seed, flattens the
JSON-exportable ``data`` of its
:class:`~repro.experiments.result.ExperimentResult` into scalar leaves,
and stores them as a committed fixture. ``tests/test_golden_results.py``
recomputes the cases and compares leaf-by-leaf with tolerances, so a
behaviour change in any layer (kernel, TCP, workloads, analysis) surfaces
as a named metric diff instead of a silent drift.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python -m repro.tools.golden

and commit the updated ``tests/golden/*.json``.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from typing import Any, Callable

from repro.analysis.export import result_to_dict, write_json
from repro.experiments.result import ExperimentResult

#: All golden cases share one small scale and one fixed seed.
SCALE = 0.05
SEED = 3

#: Experiments cheap enough to run end-to-end in the suite, each through
#: the engine serially in-process (``jobs=1``, cache off). The full
#: ``ablations`` experiment takes minutes even at this scale, so it is
#: covered by representative sub-ablations below instead.
GOLDEN_EXPERIMENTS = ["table1", "fig1", "fig2", "fig3", "fig4", "fig5",
                      "fig6", "fig7", "crossval"]

#: Cheap, layer-diverse ablation representatives (fleet predictor, TCP
#: idle-restart, receiver delayed ACKs, the ``guardrail`` and ``ictcp``
#: schemes, shared buffers, sub-MSS pacing, scheduled admission, the
#: leaf-spine fabric, partition/aggregate fan-in and service latency),
#: each through ``ablations.run_ablation``: the
#: ablation's own units, run in-process, assembled as the experiment's
#: merge assembles them.
GOLDEN_ABLATIONS = ["predictability", "idle", "delayed_ack", "guardrail",
                    "receiver_throttle", "buffer", "pacing", "scheduler",
                    "topology", "fanin", "service_latency"]

#: Experiments additionally pinned through the engine's process pool
#: (plan → pool fan-out → merge, ``jobs=2``, cache off). The serial cases
#: above cannot see a pool regression — a scheduling, retry or pickling
#: bug that perturbs payload assembly only shows up here. These are also
#: the fault-free anchors the chaos suite's recovered runs must reproduce
#: byte for byte.
GOLDEN_ENGINE_EXPERIMENTS = ["fig5", "fig6"]

#: Comparison tolerances for numeric leaves.
REL_TOL = 1e-6
ABS_TOL = 1e-9


def golden_dir() -> Path:
    """The committed fixture directory (``tests/golden``)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def scalar_leaves(value: Any, prefix: str = "data") -> dict[str, Any]:
    """Flatten JSON-compatible data into ``{dotted.path: scalar}`` leaves."""
    out: dict[str, Any] = {}
    if isinstance(value, dict):
        for key in value:
            out.update(scalar_leaves(value[key], f"{prefix}.{key}"))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            out.update(scalar_leaves(item, f"{prefix}[{index}]"))
    else:
        out[prefix] = value
    return out


def golden_payload(result: ExperimentResult) -> dict:
    """The stored form of one case: scale/seed plus metric leaves, every
    key in sorted order (the order the fixture files are committed in;
    the writer does not sort)."""
    metrics = scalar_leaves(result_to_dict(result)["data"])
    return {
        "metrics": dict(sorted(metrics.items())),
        "n_sections": len(result.sections),
        "scale": SCALE,
        "seed": SEED,
    }


def _run_through_engine(name: str, jobs: int) -> ExperimentResult:
    """One experiment through the engine on ``jobs`` workers (no
    cache)."""
    from repro.experiments.engine import run_experiments

    results, _report = run_experiments([name], scale=SCALE, seed=SEED,
                                       jobs=jobs)
    return results[name]


def golden_sweep_specs() -> dict:
    """Case name -> tiny declarative sweep spec.

    Small two-point grids over both leaf-spine scenarios, pinned through
    the sweep compile → engine → FCT-merge path. The sweep golden tests
    additionally assert these are byte-identical serial vs ``jobs=4`` vs
    SIGTERM-interrupted-and-resumed (``tests/test_sweep_golden.py``).
    """
    from repro import units
    from repro.experiments.sweep import SweepAxis, SweepSpec

    horizon = units.sec(1.0)
    return {
        "sweep_ecn_k": SweepSpec(
            name="golden-ecn-k", scenario="leafspine_mix",
            axes=(SweepAxis("ecn_threshold_packets", (8, 65)),),
            fixed={"n_racks": 2, "hosts_per_rack": 4, "n_elephants": 1,
                   "n_mice": 6, "max_sim_time_ns": horizon},
            description="golden: tiny elephant/mice ECN-K grid"),
        "sweep_incast": SweepSpec(
            name="golden-cross-rack", scenario="leafspine_incast",
            axes=(SweepAxis("n_senders", (4, 8)),),
            fixed={"n_racks": 2, "hosts_per_rack": 4,
                   "max_sim_time_ns": horizon},
            description="golden: tiny cross-rack incast under ECMP"),
        "sweep_backends": SweepSpec(
            name="golden-backends", scenario="leafspine_mix",
            axes=(SweepAxis("backend", ("fluid",)),
                  SweepAxis("ecn_threshold_packets", (8, 65))),
            fixed={"n_racks": 2, "hosts_per_rack": 4, "n_elephants": 1,
                   "n_mice": 6, "max_sim_time_ns": horizon},
            description="golden: the fluid substrate on a tiny ECN-K "
                        "grid"),
    }


def golden_verdict_grid():
    """Tiny mitigation-verdict grid pinned through the engine path.

    Three schemes (the baseline plus one receiver-side and one
    sender-signal mitigation), two incast degrees straddling the
    degenerate point, one burst length, plus the elephant/mice mix — 9
    units, enough to exercise every verdict table while staying cheap.
    The execution-path identity tests (``tests/test_verdict.py``)
    additionally assert this grid is byte-identical serial vs ``jobs=4``
    vs cached vs SIGTERM-interrupted-and-resumed.
    """
    from repro.experiments.verdict import VerdictGrid

    return VerdictGrid(schemes=("dctcp", "ictcp", "pulser"),
                       flow_counts=(40, 150), burst_ms=(2.0,))


def _run_verdict_case() -> ExperimentResult:
    """The golden verdict campaign (engine path, ``jobs=2``, no cache)."""
    from repro.experiments.engine import run_experiments
    from repro.experiments.verdict import VerdictExperiment

    adapter = VerdictExperiment(golden_verdict_grid())
    results, _report = run_experiments(
        ["verdict"], scale=SCALE, seed=SEED, jobs=2,
        extra_modules={"verdict": adapter})
    return results["verdict"]


def _run_sweep_case(case: str) -> ExperimentResult:
    """One golden sweep through the engine path (``jobs=2``, no cache)."""
    from repro.experiments.sweep import run_sweep

    result, _report = run_sweep(golden_sweep_specs()[case],
                                scale=SCALE, seed=SEED, jobs=2)
    return result


def golden_cases() -> dict[str, Callable[[], ExperimentResult]]:
    """Case name -> thunk computing its ExperimentResult."""
    from repro.experiments.ablations import run_ablation

    cases: dict[str, Callable[[], ExperimentResult]] = {}
    for name in GOLDEN_EXPERIMENTS:
        cases[name] = (lambda n=name: _run_through_engine(n, jobs=1))
    for name in GOLDEN_ABLATIONS:
        cases[f"ablation_{name}"] = (
            lambda n=name: run_ablation(n, scale=SCALE, seed=SEED))
    for name in GOLDEN_ENGINE_EXPERIMENTS:
        cases[f"engine_{name}"] = (
            lambda n=name: _run_through_engine(n, jobs=2))
    for name in golden_sweep_specs():
        cases[name] = (lambda n=name: _run_sweep_case(n))
    cases["verdict"] = _run_verdict_case
    return cases


def compare_payloads(expected: dict, actual: dict,
                     rel_tol: float = REL_TOL,
                     abs_tol: float = ABS_TOL) -> list[str]:
    """Tolerance-based diff of two golden payloads; returns mismatch
    descriptions (empty = match)."""
    problems: list[str] = []
    if expected.get("n_sections") != actual.get("n_sections"):
        problems.append(f"n_sections: expected {expected.get('n_sections')}"
                        f", got {actual.get('n_sections')}")
    want: dict = expected["metrics"]
    have: dict = actual["metrics"]
    for path in want:
        if path not in have:
            problems.append(f"missing metric {path}")
            continue
        a, b = want[path], have[path]
        numeric = (isinstance(a, (int, float))
                   and isinstance(b, (int, float))
                   and not isinstance(a, bool) and not isinstance(b, bool))
        if numeric:
            if not math.isclose(float(a), float(b), rel_tol=rel_tol,
                                abs_tol=abs_tol):
                problems.append(f"{path}: expected {a!r}, got {b!r}")
        elif a != b:
            problems.append(f"{path}: expected {a!r}, got {b!r}")
    for path in have:
        if path not in want:
            problems.append(f"unexpected metric {path}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """Regenerate (default) or ``--check`` the committed fixtures."""
    parser = argparse.ArgumentParser(
        prog="repro-golden",
        description="Regenerate or verify the golden-result fixtures")
    parser.add_argument("--dir", type=str, default=None,
                        help="fixture directory (default: tests/golden)")
    parser.add_argument("--check", action="store_true",
                        help="verify fixtures instead of rewriting them")
    parser.add_argument("--case", action="append", default=None,
                        help="restrict to specific case name(s)")
    args = parser.parse_args(argv)
    cases = golden_cases()
    unknown = sorted(set(args.case or ()) - set(cases))
    if unknown:
        parser.error(f"unknown case(s) {', '.join(unknown)}; valid cases: "
                     f"{', '.join(cases)}")

    directory = Path(args.dir) if args.dir else golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, thunk in cases.items():
        if args.case and name not in args.case:
            continue
        payload = golden_payload(thunk())
        path = directory / f"{name}.json"
        if args.check:
            expected = json.loads(path.read_text(encoding="utf-8"))
            problems = compare_payloads(expected, payload)
            status = "ok" if not problems else f"FAIL ({len(problems)})"
            print(f"{name:24s} {status}")
            for problem in problems[:10]:
                print(f"    {problem}")
            failures += bool(problems)
        else:
            write_json(payload, path)
            print(f"wrote {path} ({len(payload['metrics'])} metrics)")
    return 1 if failures else 0


if __name__ == "__main__":
    from repro._cli import exit_after
    exit_after(main)
