"""Experiment runners: one module per table/figure of the paper.

Every runner exposes ``run(...) -> ExperimentResult`` returning both the
structured data behind the table/figure and an ASCII rendering, so the same
code path serves tests, benchmarks, and the CLI
(``python -m repro.experiments --list``).

Scaled-down defaults are available everywhere via the ``scale`` parameter so
the whole suite stays runnable in CI; ``scale=1.0`` reproduces the paper's
configuration.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "result": ("ExperimentResult",),
    "environment": (
        "IncastSimConfig", "IncastSimResult", "run_incast_sim",
        "production_fluid_config"),
})
