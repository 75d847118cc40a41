"""Declarative parameter sweeps compiled to engine work units.

Every grid the repo ran before this module was hand-written inside a fig
module. A :class:`SweepSpec` makes the grid itself data: it names a
scenario from :data:`SCENARIOS`, declares the swept axes (ECN threshold
K, flow counts, mix shape, ...), pins the fixed overrides, and compiles —
:func:`compile_units` — to ordinary engine :class:`WorkUnit` s. Because a
unit's identity is ``(fn, params, scale, seed, version)`` and nothing
else, a compiled sweep inherits the whole engine contract for free: the
result cache, the crash-safe journal, ``--resume``, fault tolerance, and
byte-identical ``--jobs N`` fan-out.

Canonicalization is the load-bearing design rule. Axes sort by name and
override keys serialize sorted, so two specs that differ only in
dict/YAML insertion order compile to *the same plan, byte for byte* —
unit ids, cache keys, and :func:`plan_document` output included. The
property suite (``tests/test_sweep_spec.py``) pins this down.

Specs are writable in YAML (:func:`load_sweep_file`)::

    name: ecn-k-grid
    scenario: leafspine_mix
    description: mice FCT vs ECN threshold under two elephants
    axes:
      ecn_threshold_packets: [8, 20, 65]
      n_mice: [8, 16]
    fixed:
      n_elephants: 2
      hosts_per_rack: 4

and run with ``python -m repro.experiments sweep run <spec.yaml>``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Union

import yaml

from repro.analysis.fct import format_fct_table, pool_fct_digests
from repro.analysis.tables import format_table, render_cdf_table
from repro.experiments.engine import run_experiments
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.result import ExperimentResult
from repro.experiments.scenarios import (CrossRackIncastConfig,
                                         ElephantMiceGridConfig,
                                         ScenarioResult,
                                         run_cross_rack_incast,
                                         run_elephant_mice)

SCENARIOS = {
    "leafspine_incast": (CrossRackIncastConfig, run_cross_rack_incast),
    "leafspine_mix": (ElephantMiceGridConfig, run_elephant_mice),
}
"""Sweepable scenarios: name → (flat config dataclass, executor)."""

RESERVED_FIELDS = frozenset({"telemetry", "telemetry_interval_ns"})
"""Config fields the engine owns (injected per-run); specs may not set
them, or a telemetry-on run could collide with a spec-pinned value."""

SCALED_BYTE_FIELDS = ("flow_bytes", "elephant_bytes", "mouse_bytes",
                      "mouse_max_bytes")
"""Per-flow demand fields the engine ``scale`` factor multiplies. The
mice/elephant classification threshold scales with the demands — a scaled-
down elephant must still classify as an elephant."""

MIN_SCALED_BYTES = 2_000
"""Scaling never shrinks a flow below this demand (>1 MSS, so every flow
still exercises the transport rather than degenerating to one segment)."""


def scenario_fields(scenario: str) -> list[str]:
    """Field names a spec may sweep or fix for ``scenario``."""
    config_cls, _ = SCENARIOS[scenario]
    return sorted(f.name for f in fields(config_cls)
                  if f.name not in RESERVED_FIELDS)


@dataclass(frozen=True)
class SweepAxis:
    """One swept dimension: a scenario config field and its grid values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        seen = [json.dumps(v, sort_keys=True) for v in self.values]
        if len(set(seen)) != len(seen):
            raise ValueError(f"axis {self.name!r} repeats a value; each "
                             f"grid point must be distinct")


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter sweep over one scenario.

    Attributes:
        name: Sweep identifier; the engine experiment is named
            ``sweep:<name>``.
        scenario: Key into :data:`SCENARIOS`.
        axes: Swept dimensions. Stored sorted by axis name — the
            canonical order that makes plans insertion-order invariant.
        fixed: Non-default scenario fields shared by every grid point.
        description: One line for the report header.
    """

    name: str
    scenario: str
    axes: tuple[SweepAxis, ...] = ()
    fixed: dict = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() or c == ":" for c in self.name):
            raise ValueError(f"sweep name {self.name!r} must be non-empty "
                             f"with no whitespace or ':'")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"choose from {sorted(SCENARIOS)}")
        axes = tuple(sorted(self.axes, key=lambda a: a.name))
        object.__setattr__(self, "axes", axes)
        axis_names = [a.name for a in axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValueError(f"duplicate axes: {axis_names}")
        valid = set(scenario_fields(self.scenario))
        for key in (*axis_names, *self.fixed):
            if key not in valid:
                raise ValueError(
                    f"{key!r} is not a sweepable field of "
                    f"{self.scenario!r}; choose from {sorted(valid)}")
        overlap = set(axis_names) & set(self.fixed)
        if overlap:
            raise ValueError(f"fields both swept and fixed: "
                             f"{sorted(overlap)}")
        json.dumps(self.fixed)  # fail fast on non-JSON-able overrides

    @property
    def experiment_name(self) -> str:
        """The engine experiment name this sweep runs under."""
        return f"sweep:{self.name}"

    def grid_points(self) -> list[dict]:
        """Every axis-value combination, in canonical (sorted-axis,
        declared-value) order. No axes → one empty point."""
        if not self.axes:
            return [{}]
        names = [a.name for a in self.axes]
        return [dict(zip(names, combo))
                for combo in itertools.product(
                    *(a.values for a in self.axes))]

    def point_id(self, point: dict) -> str:
        """Canonical unit id for one grid point (sorted keys, JSON
        values), e.g. ``"ecn_threshold_packets=8,n_mice=16"``."""
        if not point:
            return "point:base"
        return ",".join(f"{k}={json.dumps(point[k], sort_keys=True)}"
                        for k in sorted(point))


def compile_units(spec: SweepSpec, scale: float = 1.0,
                  seed: int = 0) -> list[WorkUnit]:
    """Compile a spec to engine work units, one per grid point.

    The unit's ``params`` carry the scenario name plus the merged
    (fixed + point) overrides with sorted keys; everything identity-
    relevant lives there, so the cache key machinery needs no sweep
    awareness at all.
    """
    units = []
    for point in spec.grid_points():
        overrides = {**spec.fixed, **point}
        units.append(WorkUnit(
            experiment=spec.experiment_name,
            unit_id=spec.point_id(point),
            fn="repro.experiments.sweep:run_unit",
            params={"scenario": spec.scenario,
                    "overrides": {k: overrides[k]
                                  for k in sorted(overrides)}},
            scale=scale, seed=seed))
    return units


def plan_document(spec: SweepSpec, scale: float = 1.0,
                  seed: int = 0) -> str:
    """Canonical JSON description of the compiled plan.

    Byte-identical for equivalent specs however their axes/keys were
    ordered at declaration — the artifact the property suite and the
    ``sweep plan`` CLI subcommand both rely on.
    """
    units = compile_units(spec, scale, seed)
    return json.dumps({
        "experiment": spec.experiment_name,
        "scenario": spec.scenario,
        "scale": scale,
        "seed": seed,
        "n_units": len(units),
        "units": [{"unit_id": u.unit_id, "cache_key": u.cache_key(),
                   "params": u.params} for u in units],
    }, indent=2, sort_keys=True)


def scaled_config(cfg, scale: float):
    """Apply the engine scale factor: per-flow demands shrink linearly
    (floored at :data:`MIN_SCALED_BYTES`); topology and thresholds are
    identity-defining and never scale. Shared with the verdict campaign
    (:mod:`repro.experiments.verdict`), which scales its mix scenario by
    the same rule."""
    if scale == 1.0:
        return cfg
    changes = {}
    for name in SCALED_BYTE_FIELDS:
        if hasattr(cfg, name):
            raw = getattr(cfg, name)
            changes[name] = max(MIN_SCALED_BYTES, int(round(raw * scale)))
    return replace(cfg, **changes)


def run_unit(unit: WorkUnit) -> ScenarioResult:
    """Execute one grid point (the ``fn`` every compiled unit names)."""
    config_cls, executor = SCENARIOS[unit.params["scenario"]]
    overrides = dict(unit.params.get("overrides", {}))
    overrides.setdefault("seed", unit.seed)
    cfg = scaled_config(config_cls(**overrides), unit.scale)
    tele = unit.params.get("telemetry")
    if tele:
        cfg = replace(cfg, telemetry=True,
                      telemetry_interval_ns=int(tele["interval_ns"]))
    return executor(cfg)


def merge(spec: SweepSpec, work: list[WorkUnit],
          payloads: list[ScenarioResult], *, scale: float,
          seed: int) -> ExperimentResult:
    """Assemble per-point payloads into the sweep's report.

    Sections: the FCT-vs-point comparison table (the textual FCT-vs-K
    figure), the bottleneck-queue occupancy table, and the merged
    mice/elephant FCT CDFs across every grid point.
    """
    by_point = {u.unit_id: p for u, p in zip(work, payloads)}
    result = ExperimentResult(
        name=spec.experiment_name,
        description=spec.description
        or f"{spec.scenario} grid ({len(work)} points)")

    # One digest (class split, ms conversion, CDFs) per point feeds both
    # the table row here and the point's export below.
    digests = {uid: p.fcts.digest() for uid, p in by_point.items()}
    result.add_section(format_fct_table(
        digests,
        title=f"Per-flow FCT vs grid point (scale={scale}, seed={seed})"))

    queue_rows = [[uid, p.bottleneck["max_len_packets"],
                   p.bottleneck["marked_packets"],
                   p.bottleneck["dropped_packets"]]
                  for uid, p in by_point.items()]
    result.add_section(format_table(
        ["point", "max qlen (pkts)", "marked", "dropped"], queue_rows,
        title="Bottleneck (receiver downlink) queue occupancy"))

    # Grid points re-simulate the same deterministic flow plan: they are
    # independent samples to pool, and the per-point digests already hold
    # every sample sorted, so no flow record is touched again.
    merged = pool_fct_digests(list(digests.values()))
    if merged.cdfs:
        result.add_section(render_cdf_table(
            merged.cdfs, percentiles=(25.0, 50.0, 75.0, 90.0, 99.0),
            value_label="FCT (ms)",
            title="Merged FCT CDFs across the grid (ms)"))

    result.data = {
        "spec": {"name": spec.name, "scenario": spec.scenario,
                 "axes": {a.name: list(a.values) for a in spec.axes},
                 "fixed": dict(spec.fixed)},
        "points": {uid: p.export_with(digests[uid])
                   for uid, p in by_point.items()},
        "merged_fct": merged.summary(),
    }
    return result


@dataclass
class SweepExperiment:
    """Module-shaped adapter binding a spec into the engine registry.

    Exposes exactly the ``work_units``/``merge`` surface
    :func:`repro.experiments.engine.run_experiments` expects of an entry
    in ``EXPERIMENT_MODULES``, so a sweep slots in through the
    ``extra_modules`` hook as a first-class (if transient) experiment.
    """

    spec: SweepSpec

    def work_units(self, scale: float, seed: int) -> list[WorkUnit]:
        """Compile the spec's grid (the registry protocol's plan hook)."""
        return compile_units(self.spec, scale, seed)

    def merge(self, work: list[WorkUnit], payloads: list[ScenarioResult],
              *, scale: float, seed: int) -> ExperimentResult:
        """Assemble the sweep report (the registry protocol's merge
        hook)."""
        return merge(self.spec, work, payloads, scale=scale, seed=seed)


def run_sweep(spec: SweepSpec, *, scale: float = 1.0, seed: int = 0,
              **engine_kwargs):
    """Run a sweep through the engine, end to end.

    Thin composition: register the spec as an ad-hoc module and call
    :func:`run_experiments` with one experiment name, so every engine
    keyword (``jobs``, ``cache``, ``journal_path``, ``resume_from``,
    ``faults``, ...) passes straight through.

    Returns:
        ``(result, report)`` — the merged :class:`ExperimentResult`
        (``None`` if ``keep_going`` swallowed a failed point) and the
        engine's :class:`RunReport`.
    """
    adapter = SweepExperiment(spec)
    name = spec.experiment_name
    results, report = run_experiments(
        [name], scale=scale, seed=seed,
        extra_modules={name: adapter}, **engine_kwargs)
    return results.get(name), report


def parse_sweep_mapping(doc: dict, *, source: str = "<sweep>") -> SweepSpec:
    """Build a spec from a parsed YAML/JSON mapping, rejecting unknown
    keys loudly (a typoed axis silently ignored would sweep nothing)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: sweep spec must be a mapping, "
                         f"got {type(doc).__name__}")
    allowed = {"name", "scenario", "axes", "fixed", "description"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"{source}: unknown spec keys {unknown}; "
                         f"allowed: {sorted(allowed)}")
    for key in ("name", "scenario"):
        if key not in doc:
            raise ValueError(f"{source}: spec is missing {key!r}")
    axes_doc = doc.get("axes") or {}
    if not isinstance(axes_doc, dict):
        raise ValueError(f"{source}: 'axes' must map field names to "
                         f"value lists")
    axes = []
    for axis_name, values in axes_doc.items():
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"{source}: axis {axis_name!r} must list its "
                             f"values")
        axes.append(SweepAxis(name=str(axis_name), values=tuple(values)))
    fixed = doc.get("fixed") or {}
    if not isinstance(fixed, dict):
        raise ValueError(f"{source}: 'fixed' must be a mapping")
    return SweepSpec(name=str(doc["name"]), scenario=str(doc["scenario"]),
                     axes=tuple(axes), fixed=dict(fixed),
                     description=str(doc.get("description") or ""))


def load_sweep_file(path: Union[str, Path]) -> SweepSpec:
    """Load and validate a YAML sweep spec from disk."""
    path = Path(path)
    doc = yaml.safe_load(path.read_text())
    return parse_sweep_mapping(doc, source=str(path))
