"""Output checks: digest stability plus per-workload semantic checks.

Every pass of a workload within one run must produce the same result
digest, and must satisfy the workload's semantic check below. Digests are
*reported*, not compared with committed values, so a change that
legitimately alters simulated results is not blocked — but a change that
claims pure speed must show identical digests on parent and change.

Failures feed ``failed_share``: an operation is one pass's output check,
or, for the sweep workloads, one work unit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

#: Run-report fields that are clock readings or host facts, stripped
#: before digesting (everything else in an export is a simulated result
#: or engine accounting and must repeat).
VOLATILE_KEYS = frozenset({"wall_s", "busy_s", "parallel_speedup", "worker",
                           "cache_dir"})

FLEET_FILES = ("table1.json", "fig1.json", "fig2.json", "fig4.json")


def _strip(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items()
                if k not in VOLATILE_KEYS}
    if isinstance(value, (list, tuple)):
        return [_strip(v) for v in value]
    return value


def _plain(obj: Any) -> Any:
    """numpy scalars and enums inside result dicts, as plain JSON."""
    item = getattr(obj, "item", None)
    return item() if callable(item) else repr(obj)


def digest(document: Any) -> str:
    """SHA-256 over the canonical JSON of ``document``, volatile fields
    stripped."""
    text = json.dumps(_strip(document), sort_keys=True,
                      separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- semantic checks: facts -> list of problems ---------------------------

def _bursts_complete(facts: dict) -> list[str]:
    done, expected = facts["bursts_completed"], facts["bursts_expected"]
    return [] if done == expected else [
        f"{done}/{expected} bursts completed"]


def _incast_steady(facts: dict) -> list[str]:
    problems = _bursts_complete(facts)
    if facts["drops"] or facts["rtos"]:
        problems.append(f"healthy mode expected, saw {facts['drops']} "
                        f"drops and {facts['rtos']} RTOs")
    return problems


def _incast_lossy(facts: dict) -> list[str]:
    problems = _bursts_complete(facts)
    if not (facts["drops"] > 0 and facts["rtos"] > 0):
        problems.append(f"loss path expected, saw {facts['drops']} drops "
                        f"and {facts['rtos']} RTOs")
    return problems


def _incast_telemetry(facts: dict) -> list[str]:
    problems = _incast_steady(facts)
    if not (facts["telemetry_intervals"] > 0
            and facts["telemetry_events"] > 0):
        problems.append("telemetry capture is empty")
    if facts["bursts"] != facts["untelemetered_bursts"]:
        problems.append("burst results differ from the same input with "
                        "telemetry off")
    return problems


def _engine_ok(facts: dict) -> list[str]:
    problems = []
    if facts["exit_code"] != 0:
        problems.append(f"runner exited {facts['exit_code']}")
    if facts["engine_failed"]:
        problems.append(f"{facts['engine_failed']} unit(s) failed")
    return problems


def _fleet_study(facts: dict) -> list[str]:
    problems = _engine_ok(facts)
    missing = sorted(set(FLEET_FILES) - set(facts["files"]))
    if missing:
        problems.append(f"missing exports: {missing}")
    return problems


def _sweep_warm(facts: dict) -> list[str]:
    problems = _engine_ok(facts)
    if not facts["export_matches_cold"]:
        problems.append("sweep export differs from the cold pass's bytes")
    return problems


SEMANTIC: dict[str, Callable[[dict], list[str]]] = {
    "incast_steady": _incast_steady,
    "incast_lossy": _incast_lossy,
    "incast_telemetry": _incast_telemetry,
    "fleet_study": _fleet_study,
    "sweep_cold": _engine_ok,
    "sweep_warm": _sweep_warm,
}

#: Sweep workloads count one operation per work unit; the fact named here
#: says how many units resolved the way the workload requires (every unit
#: executed on a cold cache, every unit a hit — ``executed 0`` — on a
#: warm one).
_UNITS_DONE = {"sweep_cold": "executed", "sweep_warm": "cache_hits"}


class Checker:
    """Accumulates attempted/failed operations over a run's passes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, document: Any, facts: dict) -> None:
        """Check one pass's output and count its operations."""
        problems = SEMANTIC[self.workload](facts)
        seen = digest(document)
        if self.digest is None:
            self.digest = seen
        elif seen != self.digest:
            problems.append(f"result digest changed between passes "
                            f"({self.digest[:12]} -> {seen[:12]})")
        done_key = _UNITS_DONE.get(self.workload)
        if done_key is None:
            ops, bad = 1, int(bool(problems))
        else:
            # A pass-level problem fails every unit of the pass.
            ops = max(facts["units"], 1)
            bad = ops if problems else ops - facts[done_key]
            if bad and not problems:
                problems.append(f"{done_key} {facts[done_key]} of "
                                f"{facts['units']} units")
        self.attempted += ops
        self.failed += bad
        self.problems.extend(p for p in problems
                             if p not in self.problems)

    def fail(self, problem: str) -> None:
        """Count one failed operation found outside :meth:`check`."""
        self.failed += 1
        self.problems.append(problem)
