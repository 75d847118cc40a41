"""The cross-scheme verdict campaign: which mitigation moves the modes?

The mode model (Section 4.1) says DCTCP's operating-mode boundaries are
set by the bottleneck arithmetic — K* = ECN threshold + BDP, the overflow
point = capacity + BDP — and the mitigation zoo (:mod:`repro.tcp.schemes`)
exists to test which mechanisms actually *move* those boundaries and at
what cost. This campaign runs the grid that answers it in one report:

- **scheme x flow count x burst length** incast simulations on the
  calibrated dumbbell, classified into operating modes exactly like
  Figures 5/6, yielding per-scheme observed mode boundaries next to the
  analytic K*;
- one **elephant/mice mix** scenario per scheme on the leaf-spine fabric,
  yielding the collateral cost: mice and elephant FCT percentiles under
  each mitigation;
- the per-scheme mechanism counters (ACKs stamped, repairs sent, bursts
  detected, ...) that explain *why* a boundary moved.

The campaign is an ordinary engine experiment — ``work_units`` /
``merge`` — whose units are sweep grid points
(:func:`repro.experiments.sweep.run_unit` on the ``dumbbell_incast`` and
``leafspine_mix`` scenarios), so it is cacheable, resumable, journaled,
fault-tolerant and byte-identical under ``--jobs N`` for free, and a
trimmed grid (:class:`VerdictGrid` + :class:`VerdictExperiment`) drives the
``verdict`` CLI subcommand::

    python -m repro.experiments.runner verdict
    python -m repro.experiments.runner verdict --schemes dctcp,ictcp \\
        --flows 50,150 --burst-ms 2 --jobs 4
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro import units
from repro.analysis.fct import FctGrid, format_fct_table
from repro.analysis.tables import format_table
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.result import ExperimentResult
from repro.experiments.sweep import point_unit
from repro.tcp.schemes import DEFAULT_SCHEME, get_scheme

SCHEMES = ("dctcp", "ictcp", "pulser", "fec", "detect")
"""Default scheme axis: the whole built-in zoo, baseline first."""

FLOW_COUNTS = (50, 150, 400)
"""Default incast degrees: one per analytic operating mode of the
calibrated dumbbell (K* = 90, overflow ~ 350)."""

BURST_MS = (2.0, 15.0)
"""Default burst lengths: the production-common 2 ms and the paper's
15 ms steady-state bursts."""


@dataclass(frozen=True)
class VerdictGrid:
    """The campaign grid: which schemes, degrees and burst lengths run.

    Attributes:
        schemes: Mitigation schemes to compare (registry names).
        flow_counts: Incast degrees for the mode-boundary grid.
        burst_ms: Burst durations in milliseconds.
        mix: Also run the elephant/mice FCT-cost scenario per scheme.
    """

    schemes: tuple = SCHEMES
    flow_counts: tuple = FLOW_COUNTS
    burst_ms: tuple = BURST_MS
    mix: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "flow_counts", tuple(self.flow_counts))
        object.__setattr__(self, "burst_ms",
                           tuple(float(b) for b in self.burst_ms))
        for name in self.schemes:
            get_scheme(name)  # raises with the valid choices
        for axis, values in (("schemes", self.schemes),
                             ("flow_counts", self.flow_counts),
                             ("burst_ms", self.burst_ms)):
            if not values:
                raise ValueError(f"verdict grid axis {axis!r} is empty")
            if len(set(values)) != len(values):
                raise ValueError(f"verdict grid axis {axis!r} repeats a "
                                 f"value: {values}")
        if any(n <= 0 for n in self.flow_counts):
            raise ValueError(f"flow counts must be positive, "
                             f"got {self.flow_counts}")
        if not all(math.isfinite(b) and b > 0 for b in self.burst_ms):
            raise ValueError(f"burst lengths must be finite and positive, "
                             f"got {self.burst_ms}")


DEFAULT_GRID = VerdictGrid()
"""The grid ``--experiment verdict`` (and the registry entry) runs."""


def _scheme_params(scheme: str) -> dict:
    """Overrides for the scheme axis — the default scheme is elided so
    the axis is invisible until actually exercised, the same rule every
    config export follows."""
    return {} if scheme == DEFAULT_SCHEME else {"scheme": scheme}


def grid_units(grid: VerdictGrid, scale: float, seed: int
               ) -> list[WorkUnit]:
    """Compile a grid into engine work units, one per simulation.

    Incast units are ``dumbbell_incast`` points (the burst count follows
    the dumbbell scale rule, like fig5/fig6); mix units are one small
    ``leafspine_mix`` point per scheme. Both add ``scheme`` only when it
    is not the default, so a baseline unit's cache key is scheme-blind.
    """
    work = []
    for scheme in grid.schemes:
        for burst in grid.burst_ms:
            for n_flows in grid.flow_counts:
                work.append(point_unit(
                    "verdict", f"{scheme}/flows:{n_flows}/burst:{burst:g}ms",
                    "dumbbell_incast",
                    {"n_flows": n_flows,
                     "burst_duration_ns": units.msec(burst),
                     "max_sim_time_ns": units.sec(60.0),
                     **_scheme_params(scheme)}, scale, seed))
        if grid.mix:
            work.append(point_unit(
                "verdict", f"{scheme}/mix", "leafspine_mix",
                {"n_racks": 2, "hosts_per_rack": 4, "n_elephants": 2,
                 "n_mice": 12, **_scheme_params(scheme)}, scale, seed))
    return work


def _first_reaching(rows: list, floor: int):
    """Smallest sampled flow count whose observed mode is at least
    ``floor`` (None if no sampled degree reaches it)."""
    hits = [n_flows for n_flows, mode in rows if mode >= floor]
    return min(hits) if hits else None


def merge(work: list[WorkUnit], payloads: list, *, scale: float,
          seed: int) -> ExperimentResult:
    """Assemble the campaign's payloads into the verdict report.

    Sections: the scheme x degree x burst grid (mode, BCT, inflation,
    RTOs, drops), the observed-vs-analytic mode-boundary table, the
    per-scheme mice/elephant FCT cost table, and the mechanism counters.
    """
    result = ExperimentResult(
        name="verdict",
        description="Mitigation-scheme verdict: operating-mode movement "
                    "vs mice/elephant FCT cost",
    )
    grid_rows = []
    observed: dict = {}      # (scheme, burst) -> [(n_flows, mode)]
    analytic = None          # shared dumbbell: one model for all units
    mix_payloads: dict = {}
    grid_exports: dict = {}
    stats_rows = []
    for unit, payload in zip(work, payloads):
        overrides = unit.params["overrides"]
        scheme = overrides.get("scheme", DEFAULT_SCHEME)
        if unit.params["scenario"] == "leafspine_mix":
            mix_payloads[scheme] = payload
            stats = payload.scheme_stats
        else:
            n_flows = overrides["n_flows"]
            burst = units.ns_to_ms(overrides["burst_duration_ns"])
            grid_exports[unit.unit_id] = payload.export_dict()
            observed.setdefault((scheme, burst), []).append(
                (n_flows, int(payload.mode)))
            analytic = payload.config.mode_model()
            grid_rows.append([
                scheme, f"{burst:g}", n_flows, payload.mode.name,
                round(payload.mean_bct_ms, 3),
                round(payload.bct_inflation, 2),
                payload.steady_rtos, payload.steady_drops,
            ])
            stats = payload.scheme_stats
        if stats:
            stats_rows.append([unit.unit_id,
                               json.dumps(stats, sort_keys=True)])

    result.add_section(format_table(
        ["scheme", "burst (ms)", "flows", "mode", "BCT (ms)",
         "inflation", "RTOs", "drops"], grid_rows,
        title=f"Verdict grid: operating mode and burst cost per scheme "
              f"(scale={scale}, seed={seed})"))

    boundaries: dict = {}
    boundary_rows = []
    for (scheme, burst), rows in sorted(observed.items()):
        degenerate = _first_reaching(rows, 2)
        timeout = _first_reaching(rows, 3)
        boundaries.setdefault(scheme, {})[f"burst:{burst:g}ms"] = {
            "first_degenerate_flows": degenerate,
            "first_timeout_flows": timeout,
        }
        boundary_rows.append([
            scheme, f"{burst:g}",
            degenerate if degenerate is not None else "-",
            timeout if timeout is not None else "-",
            analytic.degenerate_point if analytic else "-",
            analytic.overflow_point if analytic else "-",
        ])
    result.add_section(format_table(
        ["scheme", "burst (ms)", "first flows in mode >=2",
         "first flows in mode 3", "analytic K*", "analytic overflow"],
        boundary_rows,
        title="Operating-mode boundaries: smallest sampled incast degree "
              "reaching each mode ('-' = never, i.e. the boundary moved "
              "past the grid) vs the no-mitigation analytic points"))

    mix = FctGrid({scheme: payload.fcts
                   for scheme, payload in mix_payloads.items()})
    if mix_payloads:
        result.add_section(format_fct_table(
            mix, percentiles=(50.0, 90.0, 99.0),
            title="Mitigation cost on the leaf-spine elephant/mice mix: "
                  "per-scheme FCT percentiles"))
    if stats_rows:
        result.add_section(format_table(
            ["unit", "scheme stats"], stats_rows,
            title="Mechanism counters (why a boundary moved)"))

    mix_summaries = mix.summaries()
    result.data = {
        "grid": grid_exports,
        "boundaries": boundaries,
        "analytic": ({"degenerate_point": analytic.degenerate_point,
                      "overflow_point": analytic.overflow_point}
                     if analytic else {}),
        "mix": {scheme: payload.export_with(mix_summaries[scheme])
                for scheme, payload in mix_payloads.items()},
    }
    return result


def work_units(scale: float, seed: int) -> list[WorkUnit]:
    """The registry protocol's plan hook (the default grid)."""
    return grid_units(DEFAULT_GRID, scale, seed)


@dataclass
class VerdictExperiment:
    """Module-shaped adapter binding a trimmed grid into the engine.

    Mirrors :class:`repro.experiments.sweep.SweepExperiment`: exposes the
    ``work_units``/``merge`` surface ``run_experiments`` expects, so a
    CLI-trimmed campaign runs through ``extra_modules`` with the full
    engine contract (cache, journal, resume, fan-out).
    """

    grid: VerdictGrid

    def work_units(self, scale: float, seed: int) -> list[WorkUnit]:
        """Compile this grid (the registry protocol's plan hook)."""
        return grid_units(self.grid, scale, seed)

    def merge(self, work: list[WorkUnit], payloads: list, *,
              scale: float, seed: int) -> ExperimentResult:
        """Assemble the verdict report (the registry protocol's merge
        hook)."""
        return merge(work, payloads, scale=scale, seed=seed)
