"""``python -m bench --compare A.json B.json``: is B within bounds of A?

Applies the per-metric bounds from ``BENCHMARK.json`` to two suite
documents (A is the base), one row per (workload, metric). All end-to-end
metrics are lower-is-better, so B exceeds a bound when it is more than
``bound`` above A; ``failed_share`` has an absolute bound of 0. A row
where B is *better* than A by more than the bound is marked too (``A
EXCEEDS``: read the other way round, A would fail), because two sets of
runs of one commit must agree in both directions; it does not change the
exit status. Group-B counts and result digests are compared exactly and
flagged when they differ — that marks a change of model, not of speed —
but only a bound exceeded makes the exit status non-zero. The reference
loop's reading during both runs is printed beside each workload, for the
record: the metrics above it are already rated against it.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench.manifest import END_TO_END, GROUP_B


def load_document(path: Path) -> dict:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not document.get("comparable", False):
        raise ValueError(f"{path} is a --quick run or stopped short of its "
                         f"pinned passes (\"comparable\": false)")
    return document


def compare(base: dict, new: dict, bounds: dict[str, float]
            ) -> tuple[list[str], int]:
    """Returns ``(report lines, number of bounds exceeded)``."""
    lines = [f"{'workload':<18}{'metric':<26}{'A':>14}{'B':>14}"
             f"{'B/A':>8}  bound"]
    exceeded = reverse = mismatched = 0
    for name, a in base["workloads"].items():
        b = new["workloads"].get(name)
        if b is None:
            lines.append(f"{name:<18}missing from B")
            exceeded += 1
            continue
        for metric in END_TO_END:
            va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
            over = vb > va * (1.0 + bounds[metric])
            under = va > vb * (1.0 + bounds[metric])
            exceeded += over
            reverse += under
            lines.append(f"{name:<18}{metric:<26}{va:>14.6f}{vb:>14.6f}"
                         f"{vb / va:>8.3f}  {bounds[metric]:.0%}"
                         + ("  EXCEEDED" if over else "")
                         + ("  A EXCEEDS" if under else ""))
        over = b["failed_share"] > 0
        exceeded += over
        lines.append(f"{name:<18}{'failed_share':<26}"
                     f"{a['failed_share']:>14.6f}{b['failed_share']:>14.6f}"
                     f"{'':>8}  0 abs" + ("  EXCEEDED" if over else ""))
        spin_a, spin_b = (min(run["spin_ms"][side]["median"]
                              for side in ("before", "after"))
                          for run in (a, b))
        lines.append(f"{name:<18}{'host.spin_ms (calmer half)':<26}"
                     f"{spin_a:>14.3f}{spin_b:>14.3f}{spin_b / spin_a:>8.3f}"
                     f"  informational")
        if a["digest"] != b["digest"]:
            mismatched += 1
            lines.append(f"{name:<18}{'result digest':<26}"
                         f"{a['digest'][:12]:>14}{b['digest'][:12]:>14}"
                         f"{'':>8}  MISMATCH")
        counts_a = a.get("traced", {}).get("per_layer", {})
        counts_b = b.get("traced", {}).get("per_layer", {})
        for metric in GROUP_B:
            if counts_a.get(metric) != counts_b.get(metric):
                mismatched += 1
                lines.append(f"{name:<18}{metric:<26}"
                             f"{counts_a.get(metric)!s:>14}"
                             f"{counts_b.get(metric)!s:>14}{'':>8}"
                             f"  MISMATCH")
    lines.append(f"{exceeded} bound(s) exceeded by B, {reverse} by A, "
                 f"{mismatched} exact mismatch(es) in digests and "
                 f"group-B counts")
    return lines, exceeded
