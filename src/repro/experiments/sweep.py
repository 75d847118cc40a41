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

A key may be a dotted path into a nested config (``dumbbell_incast``'s
``dumbbell.ecn_threshold_packets``, ``tcp.delayed_ack``); it validates,
sorts and serialises exactly like a flat one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from importlib import import_module
from pathlib import Path
from typing import Union

from repro.analysis.tables import format_table, render_cdf_table
from repro.experiments.engine import run_experiments
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.result import ExperimentResult

SCENARIOS = {
    "dumbbell_incast": ("repro.experiments.environment:IncastSimConfig",
                        "repro.experiments.environment:run_incast_sim"),
    "leafspine_incast": ("repro.experiments.scenarios:CrossRackIncastConfig",
                         "repro.experiments.scenarios:run_cross_rack_incast"),
    "leafspine_mix": ("repro.experiments.scenarios:ElephantMiceGridConfig",
                      "repro.experiments.scenarios:run_elephant_mice"),
}
"""Sweepable scenarios: name → (config dataclass, executor), each a
``module:name`` path imported on first use, so validating or running a
spec loads only the substrate its scenario names."""

RESERVED_FIELDS = frozenset({"telemetry", "telemetry_interval_ns",
                             "dumbbell.n_senders"})
"""Config fields no spec may set: the engine injects telemetry per run
(a spec-pinned value could collide with a telemetry-on run), and the
dumbbell config derives its sender count from ``n_flows``."""

SCALED_BYTE_FIELDS = ("flow_bytes", "elephant_bytes", "mouse_bytes",
                      "mouse_max_bytes")
"""Per-flow demand fields the engine ``scale`` factor multiplies. The
mice/elephant classification threshold scales with the demands — a scaled-
down elephant must still classify as an elephant."""

_VALUE_JSON = json.JSONEncoder(sort_keys=True)
"""``json.dumps(v, sort_keys=True)`` for point ids, built once."""

MIN_SCALED_BYTES = 2_000
"""Scaling never shrinks a flow below this demand (>1 MSS, so every flow
still exercises the transport rather than degenerating to one segment)."""


@cache
def load_scenario(scenario: str) -> tuple:
    """``(config dataclass, executor)`` of ``scenario``, imported on the
    first call (every grid point asks)."""
    return tuple(getattr(import_module(module), name) for module, _, name
                 in (path.partition(":") for path in SCENARIOS[scenario]))


def scenario_fields(scenario: str) -> list[str]:
    """Field names a spec may sweep or fix for ``scenario``: each scalar
    field of its config, and ``outer.leaf`` for each field of a nested
    config dataclass (which is not itself a value a spec can write)."""
    names = []
    for outer in fields(load_scenario(scenario)[0]):
        if is_dataclass(outer.default_factory):
            names += [f"{outer.name}.{leaf.name}"
                      for leaf in fields(outer.default_factory)]
        else:
            names.append(outer.name)
    return sorted(n for n in names if n not in RESERVED_FIELDS)


@dataclass(frozen=True)
class SweepAxis:
    """One swept dimension: a scenario config field and its grid values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        seen = [_VALUE_JSON.encode(v) for v in self.values]
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
        return ",".join(f"{k}={_VALUE_JSON.encode(point[k])}"
                        for k in sorted(point))


def point_unit(experiment: str, unit_id: str, scenario: str,
               overrides: dict, scale: float, seed: int) -> WorkUnit:
    """One grid point of ``scenario`` as an engine work unit: the one
    constructor of every unit :func:`run_unit` executes.

    The unit's ``params`` carry the scenario name plus the overrides
    with sorted keys; everything identity-relevant lives there, so equal
    points share one cache key whichever experiment plans them, and the
    cache key machinery needs no sweep awareness at all.
    """
    return WorkUnit(experiment=experiment, unit_id=unit_id,
                    fn="repro.experiments.sweep:run_unit",
                    params={"scenario": scenario,
                            "overrides": {k: overrides[k]
                                          for k in sorted(overrides)}},
                    scale=scale, seed=seed)


def compile_units(spec: SweepSpec, scale: float = 1.0,
                  seed: int = 0) -> list[WorkUnit]:
    """Compile a spec to engine work units, one per grid point: the
    merged (fixed + point) overrides of each, through
    :func:`point_unit`."""
    return [point_unit(spec.experiment_name, spec.point_id(point),
                       spec.scenario, {**spec.fixed, **point}, scale, seed)
            for point in spec.grid_points()]


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
    """Apply the engine scale factor to a leaf-spine config: per-flow
    demands shrink linearly (floored at :data:`MIN_SCALED_BYTES`);
    topology and thresholds are identity-defining and never scale."""
    if scale == 1.0:
        return cfg
    changes = {}
    for name in SCALED_BYTE_FIELDS:
        if hasattr(cfg, name):
            raw = getattr(cfg, name)
            changes[name] = max(MIN_SCALED_BYTES, int(round(raw * scale)))
    return replace(cfg, **changes)


def run_unit(unit: WorkUnit):
    """Execute one grid point (the ``fn`` every compiled unit names).

    The engine ``scale`` applies by the scenario's rule: the dumbbell's
    burst shape (``environment.scaled_incast_config``) or the leaf-spine
    per-flow bytes (:func:`scaled_config`).
    """
    scenario = unit.params["scenario"]
    config_cls, executor = load_scenario(scenario)
    overrides = dict(unit.params.get("overrides", {}))
    overrides.setdefault("seed", unit.seed)
    if scenario == "dumbbell_incast":
        from repro.experiments.environment import scaled_incast_config
        cfg = scaled_incast_config(overrides, unit.scale)
    else:
        cfg = scaled_config(config_cls(**overrides), unit.scale)
    tele = unit.params.get("telemetry")
    if tele:
        cfg = replace(cfg, telemetry=True,
                      telemetry_interval_ns=int(tele["interval_ns"]))
    payload = executor(cfg)
    if scenario == "dumbbell_incast":
        # A payload is what the unit measured, not the simulated network
        # behind it: a pooled unit's result drops it when it is pickled
        # (IncastSimResult.__getstate__), and a serial campaign, which
        # holds every payload until the merge, drops it here.
        payload.network = None
    return payload


def merge(spec: SweepSpec, work: list[WorkUnit], payloads: list, *,
          scale: float, seed: int) -> ExperimentResult:
    """Assemble per-point payloads into the sweep's report.

    A ``dumbbell_incast`` grid reports one operating-mode row per point
    (:func:`_report_modes`); a leaf-spine grid reports flow completion
    times (:func:`_report_fcts`).
    """
    by_point = {u.unit_id: p for u, p in zip(work, payloads)}
    result = ExperimentResult(
        name=spec.experiment_name,
        description=spec.description
        or f"{spec.scenario} grid ({len(work)} points)")
    report = (_report_modes if spec.scenario == "dumbbell_incast"
              else _report_fcts)
    result.data = {
        "spec": {"name": spec.name, "scenario": spec.scenario,
                 "axes": {a.name: list(a.values) for a in spec.axes},
                 "fixed": dict(spec.fixed)},
        **report(result, by_point, scale, seed),
    }
    return result


def _report_modes(result: ExperimentResult, by_point: dict, scale: float,
                  seed: int) -> dict:
    """One row per dumbbell point: its id, the analytic mode its
    incast degree predicts, then the run's summary columns; the title
    names the analytic boundaries K* and the overflow point. Returns
    the points' exports."""
    from repro.experiments.environment import SUMMARY_COLUMNS
    models = {uid: p.config.mode_model() for uid, p in by_point.items()}
    rows = [[uid, models[uid].predict(p.config.n_flows).name,
             *p.summary_row()] for uid, p in by_point.items()]

    def points(attr: str) -> str:
        return "/".join(str(v) for v in
                        sorted({getattr(m, attr) for m in models.values()}))

    result.add_section(format_table(
        ["point", "predicted"] + SUMMARY_COLUMNS, rows,
        title=f"Operating mode vs grid point (scale={scale}, seed={seed}; "
              f"K* = {points('degenerate_point')}, overflow at "
              f"{points('overflow_point')})"))
    return {"points": {uid: p.export_dict() for uid, p in by_point.items()}}


def _report_fcts(result: ExperimentResult, by_point: dict, scale: float,
                 seed: int) -> dict:
    """The FCT-vs-point comparison table (the textual FCT-vs-K figure),
    the bottleneck-queue occupancy table, and the merged mice/elephant
    FCT CDFs across every grid point. Returns the points' exports and
    the merged FCT summary."""
    from repro.analysis.fct import FctGrid, format_fct_table

    # One columnar digest of every point's flows feeds the table rows
    # here, the points' exports and the CDFs pooled across the grid.
    grid = FctGrid({uid: p.fcts for uid, p in by_point.items()})
    result.add_section(format_fct_table(
        grid,
        title=f"Per-flow FCT vs grid point (scale={scale}, seed={seed})"))

    queue_rows = [[uid, p.bottleneck["max_len_packets"],
                   p.bottleneck["marked_packets"],
                   p.bottleneck["dropped_packets"]]
                  for uid, p in by_point.items()]
    result.add_section(format_table(
        ["point", "max qlen (pkts)", "marked", "dropped"], queue_rows,
        title="Bottleneck (receiver downlink) queue occupancy"))

    # Grid points re-simulate the same deterministic flow plan: they are
    # independent samples to pool.
    merged = grid.pooled()
    if merged.cdfs:
        result.add_section(render_cdf_table(
            merged.cdfs, percentiles=(25.0, 50.0, 75.0, 90.0, 99.0),
            value_label="FCT (ms)",
            title="Merged FCT CDFs across the grid (ms)"))
    summaries = grid.summaries()
    return {"points": {uid: p.export_with(summaries[uid])
                       for uid, p in by_point.items()},
            "merged_fct": merged.summary()}


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

    def merge(self, work: list[WorkUnit], payloads: list, *, scale: float,
              seed: int) -> ExperimentResult:
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


def _spec_loader():
    """``yaml.safe_load``'s loader, on libyaml when ``yaml`` was built
    with it (a spec then parses several times faster). ``yaml`` loads
    here, not with this module: a grid point never parses a spec."""
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_sweep_file(path: Union[str, Path]) -> SweepSpec:
    """Load and validate a YAML sweep spec from disk."""
    import yaml

    path = Path(path)
    doc = yaml.load(path.read_text(), Loader=_spec_loader())
    return parse_sweep_mapping(doc, source=str(path))
