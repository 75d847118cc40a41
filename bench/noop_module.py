"""A do-nothing engine experiment: what it costs is the engine's tax.

Registered through ``run_experiments(..., extra_modules=...)`` exactly as
a compiled sweep is. Its units return a tiny payload at once, so wall time
per unit, minus the (measured) time inside :func:`run_unit`, is what the
engine spends on plan, cache keys, seal, put/get, merge and report.
"""

from __future__ import annotations

import time

#: Seconds spent inside :func:`run_unit` since :func:`reset_inside`. Units
#: are resolved by dotted path, so the tally has to live at module level;
#: it is only meaningful for in-process (``jobs=1``) runs.
_inside_s = 0.0


def reset_inside() -> None:
    global _inside_s
    _inside_s = 0.0


def inside_s() -> float:
    return _inside_s


def run_unit(unit) -> dict:
    """The no-op executor every unit names."""
    global _inside_s
    t0 = time.perf_counter()
    payload = {"i": unit.params["i"]}
    _inside_s += time.perf_counter() - t0
    return payload


class NoopExperiment:
    """Module-shaped adapter with ``n_units`` independent no-op units."""

    def __init__(self, n_units: int):
        self.n_units = n_units

    def work_units(self, scale: float, seed: int) -> list:
        from repro.experiments.engine import WorkUnit
        return [WorkUnit(experiment="noop", unit_id=f"u{i}",
                         fn="bench.noop_module:run_unit",
                         params={"i": i}, scale=scale, seed=seed)
                for i in range(self.n_units)]

    def merge(self, work: list, payloads: list, *, scale: float,
              seed: int):
        from repro.experiments.result import ExperimentResult
        result = ExperimentResult(name="noop",
                                  description="engine-tax probe")
        result.data["n"] = len(payloads)
        return result
