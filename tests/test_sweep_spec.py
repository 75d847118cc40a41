"""Property tests for sweep-spec compilation.

The sweep DSL's whole value is that a spec compiles to a *canonical*
plan: grid points get disjoint cache keys, declaration order (of axes,
of fixed keys, of YAML mappings) never changes unit identity, and the
same YAML parsed twice yields byte-identical plans. Hypothesis searches
for counterexamples over random grids; a few deterministic tests pin the
validation error paths.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import sweep as sweep_module
from repro.experiments.sweep import (SweepAxis, SweepSpec, compile_units,
                                     load_sweep_file, parse_sweep_mapping,
                                     plan_document)

#: Fields safe to sweep on ``leafspine_mix`` without tripping the
#: scenario config's cross-field validation, with value strategies.
SAFE_AXES = {
    "ecn_threshold_packets": st.integers(1, 1000),
    "mouse_bytes": st.integers(1_000, 200_000),
    "n_mice": st.integers(1, 40),
    "seed": st.integers(0, 10_000),
    "ecmp_seed": st.integers(0, 10_000),
}

SAFE_FIXED = {
    "warmup_ns": st.integers(0, 5_000_000),
    "mouse_jitter_ns": st.integers(0, 500_000),
    "cca": st.sampled_from(["dctcp", "reno", "swiftlike"]),
}


#: The same for ``dumbbell_incast``, whose switch and TCP knobs are
#: dotted paths into its nested configs.
DUMBBELL_AXES = {
    "n_flows": st.integers(1, 2_000),
    "burst_duration_ns": st.integers(1_000_000, 20_000_000),
    "dumbbell.ecn_threshold_packets": st.integers(1, 1000),
    "dumbbell.shared_buffer_bytes": st.one_of(
        st.none(), st.integers(100_000, 4_000_000)),
    "tcp.sack_enabled": st.booleans(),
}

DUMBBELL_FIXED = {
    "dctcp_g": st.sampled_from([1.0 / 64.0, 1.0 / 16.0, 1.0]),
    "tcp.delayed_ack": st.booleans(),
    "tcp.min_rto_ns": st.integers(1_000_000, 200_000_000),
    "dumbbell.queue_capacity_packets": st.integers(100, 5_000),
}


@st.composite
def axes_sets(draw, table=SAFE_AXES) -> list[SweepAxis]:
    """1-3 axes over distinct safe fields, each with 1-4 unique values."""
    names = draw(st.lists(st.sampled_from(sorted(table)), min_size=1,
                          max_size=3, unique=True))
    axes = []
    for name in names:
        values = draw(st.lists(table[name], min_size=1, max_size=4,
                               unique=True))
        axes.append(SweepAxis(name=name, values=tuple(values)))
    return axes


@st.composite
def scenario_specs(draw, scenario, axis_table, fixed_table) -> SweepSpec:
    axes = draw(axes_sets(axis_table))
    taken = {a.name for a in axes}
    fixed_names = draw(st.lists(
        st.sampled_from(sorted(fixed_table)), max_size=2, unique=True))
    fixed = {name: draw(fixed_table[name]) for name in fixed_names
             if name not in taken}
    return SweepSpec(name="prop", scenario=scenario,
                     axes=tuple(axes), fixed=fixed)


def specs():
    """Flat ``leafspine_mix`` specs and dotted-path ``dumbbell_incast``
    specs: every property below holds for both."""
    return st.one_of(
        scenario_specs("leafspine_mix", SAFE_AXES, SAFE_FIXED),
        scenario_specs("dumbbell_incast", DUMBBELL_AXES, DUMBBELL_FIXED))


class TestGridIdentity:
    @settings(deadline=None, max_examples=50)
    @given(specs())
    def test_grid_points_have_disjoint_cache_keys(self, spec):
        units = compile_units(spec, scale=0.25, seed=7)
        expected = math.prod(len(a.values) for a in spec.axes)
        assert len(units) == expected
        assert len({u.cache_key() for u in units}) == expected
        assert len({u.unit_id for u in units}) == expected

    @settings(deadline=None, max_examples=50)
    @given(specs(), st.randoms())
    def test_declaration_order_never_changes_the_plan(self, spec, rng):
        """Shuffled axes and shuffled fixed-key insertion order compile
        to the byte-identical plan document."""
        axes = list(spec.axes)
        rng.shuffle(axes)
        fixed_keys = list(spec.fixed)
        rng.shuffle(fixed_keys)
        shuffled = SweepSpec(
            name=spec.name, scenario=spec.scenario, axes=tuple(axes),
            fixed={k: spec.fixed[k] for k in fixed_keys})
        assert plan_document(shuffled, 0.25, 7) \
            == plan_document(spec, 0.25, 7)

    @settings(deadline=None, max_examples=30)
    @given(specs())
    def test_single_value_axis_is_identical_to_fixing_it(self, spec):
        """A one-value axis and the same value in ``fixed`` produce the
        same unit identities — sweeping a constant is not a new
        computation, so it must hit the same cache entries."""
        single = [a for a in spec.axes if len(a.values) == 1]
        if not single:
            return
        axis = single[0]
        moved = SweepSpec(
            name=spec.name, scenario=spec.scenario,
            axes=tuple(a for a in spec.axes if a.name != axis.name),
            fixed={**spec.fixed, axis.name: axis.values[0]})
        keys = lambda s: sorted(u.cache_key()  # noqa: E731
                                for u in compile_units(s, 0.25, 7))
        assert keys(moved) == keys(spec)

    @settings(deadline=None, max_examples=30)
    @given(specs(), st.floats(0.05, 1.0), st.integers(0, 100))
    def test_scale_and_seed_are_identity_bearing(self, spec, scale, seed):
        base = {u.cache_key() for u in compile_units(spec, 1.0, 0)}
        varied = {u.cache_key()
                  for u in compile_units(spec, scale, seed)}
        if (scale, seed) == (1.0, 0):
            assert varied == base
        else:
            assert varied.isdisjoint(base)


def old_point_id(point: dict) -> str:
    """The point id as one ``json.dumps`` per value wrote it."""
    if not point:
        return "point:base"
    return ",".join(f"{k}={json.dumps(point[k], sort_keys=True)}"
                    for k in sorted(point))


#: JSON values a point may carry, nested dicts with unsorted keys too.
point_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


class TestPointIds:
    @settings(deadline=None, max_examples=50)
    @given(specs())
    def test_compiled_ids_are_the_per_value_json_join(self, spec):
        units = compile_units(spec, scale=0.25, seed=7)
        assert [u.unit_id for u in units] \
            == [old_point_id(p) for p in spec.grid_points()]

    @given(st.dictionaries(st.text(min_size=1, max_size=12), point_values,
                           max_size=5))
    def test_point_id_matches_for_any_json_point(self, point):
        spec = SweepSpec(name="ids", scenario="leafspine_mix")
        assert spec.point_id(point) == old_point_id(point)


class TestYamlRoundTrip:
    @settings(deadline=None, max_examples=30)
    @given(specs())
    def test_same_yaml_parsed_twice_compiles_byte_identical(self, spec):
        doc = {"name": spec.name, "scenario": spec.scenario,
               "axes": {a.name: list(a.values) for a in spec.axes},
               "fixed": dict(spec.fixed)}
        text = yaml.safe_dump(doc)
        first = parse_sweep_mapping(yaml.safe_load(text))
        second = parse_sweep_mapping(yaml.safe_load(text))
        assert plan_document(first, 0.5, 3) == plan_document(second, 0.5, 3)
        assert plan_document(first, 0.5, 3) == plan_document(spec, 0.5, 3)

    @settings(deadline=None, max_examples=30)
    @given(specs(), st.randoms())
    def test_yaml_mapping_order_is_irrelevant(self, spec, rng):
        axes = {a.name: list(a.values) for a in spec.axes}
        items = list(axes.items())
        rng.shuffle(items)
        doc_a = {"name": spec.name, "scenario": spec.scenario,
                 "axes": axes, "fixed": dict(spec.fixed)}
        doc_b = {"name": spec.name, "scenario": spec.scenario,
                 "axes": dict(items), "fixed": dict(spec.fixed)}
        text_a = yaml.safe_dump(doc_a, sort_keys=False)
        text_b = yaml.safe_dump(doc_b, sort_keys=False)
        plan_a = plan_document(parse_sweep_mapping(yaml.safe_load(text_a)))
        plan_b = plan_document(parse_sweep_mapping(yaml.safe_load(text_b)))
        assert plan_a == plan_b

    def test_example_specs_load_and_compile(self):
        from pathlib import Path
        examples = (Path(__file__).resolve().parents[1] / "examples"
                    / "sweeps")
        paths = sorted(examples.glob("*.yaml"))
        assert paths, "no example sweep specs committed"
        for path in paths:
            spec = load_sweep_file(path)
            units = compile_units(spec)
            assert units
            json.loads(plan_document(spec))


class TestValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            SweepSpec(name="x", scenario="nope")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="not a sweepable field"):
            SweepSpec(name="x", scenario="leafspine_mix",
                      axes=(SweepAxis("bogus_field", (1,)),))

    @pytest.mark.parametrize("key", [
        "dumbbell",            # a nested config is not a value
        "tcp",
        "dumbbell.n_senders",  # derived from n_flows
        "dumbbell.nope",
        "n_flows.x",           # a path into a scalar field
        "telemetry",           # engine-owned
    ])
    def test_dumbbell_keys_rejected(self, key):
        with pytest.raises(ValueError, match="not a sweepable field"):
            SweepSpec(name="x", scenario="dumbbell_incast",
                      fixed={key: 1})
        with pytest.raises(ValueError, match="not a sweepable field"):
            SweepSpec(name="x", scenario="dumbbell_incast",
                      axes=(SweepAxis(key, (1, 2)),))

    def test_dotted_keys_serialise_like_flat_ones(self):
        spec = SweepSpec(name="x", scenario="dumbbell_incast",
                         axes=(SweepAxis("tcp.delayed_ack", (False, True)),),
                         fixed={"n_flows": 100,
                                "dumbbell.ecn_threshold_packets": 20})
        units = compile_units(spec)
        assert [u.unit_id for u in units] == ["tcp.delayed_ack=false",
                                              "tcp.delayed_ack=true"]
        assert list(units[0].params["overrides"]) == [
            "dumbbell.ecn_threshold_packets", "n_flows", "tcp.delayed_ack"]

    def test_reserved_telemetry_field_rejected(self):
        with pytest.raises(ValueError, match="not a sweepable field"):
            SweepSpec(name="x", scenario="leafspine_mix",
                      fixed={"telemetry": True})

    def test_swept_and_fixed_overlap_rejected(self):
        with pytest.raises(ValueError, match="both swept and fixed"):
            SweepSpec(name="x", scenario="leafspine_mix",
                      axes=(SweepAxis("n_mice", (4,)),),
                      fixed={"n_mice": 8})

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="repeats a value"):
            SweepAxis("n_mice", (4, 4))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepAxis("n_mice", ())

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate axes"):
            SweepSpec(name="x", scenario="leafspine_mix",
                      axes=(SweepAxis("n_mice", (4,)),
                            SweepAxis("n_mice", (8,))))

    def test_bad_sweep_name_rejected(self):
        for name in ("", "has space", "has:colon"):
            with pytest.raises(ValueError, match="sweep name"):
                SweepSpec(name=name, scenario="leafspine_mix")

    def test_axisless_spec_compiles_one_unit(self):
        units = compile_units(SweepSpec(name="x",
                                        scenario="leafspine_mix"))
        assert [u.unit_id for u in units] == ["point:base"]

    def test_unknown_yaml_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown spec keys"):
            parse_sweep_mapping({"name": "x", "scenario": "leafspine_mix",
                                 "axis": {}})

    def test_missing_required_yaml_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_sweep_mapping({"name": "x"})

    def test_non_list_axis_values_rejected(self):
        with pytest.raises(ValueError, match="must list"):
            parse_sweep_mapping({"name": "x",
                                 "scenario": "leafspine_mix",
                                 "axes": {"n_mice": 4}})


#: sha256 of ``plan_document(spec, 1.0, 0)`` for the shipped leaf-spine
#: specs, recorded before the scenario registry took dotted paths and
#: the dumbbell scenario: their unit ids and cache keys must not move.
#: A cache key also hashes ``repro.__version__``, which a release bumps
#: on purpose to retire cached payloads, so the plans are compiled under
#: the version the pins were recorded with.
PLAN_PINS_VERSION = "1.2.3"
PLAN_PINS = {
    "bench/specs/engine_grid.yaml":
        "a3ae851079ccd481b4a06b9261d5661f87224dd9d178d5f02817b5b2351e29be",
    "examples/sweeps/ecn_k.yaml":
        "560b49749a9c1553148580d4018a7a888304012b0529f6cf11dc27d726b3e3c0",
    "examples/sweeps/cross_rack_incast.yaml":
        "e97a8cd83fc2c12b9cc10b07a480d3cf180c1b300aa23a8386e511101eab304a",
}


@pytest.mark.parametrize("path", sorted(PLAN_PINS))
def test_leafspine_plans_are_pinned(path, monkeypatch):
    monkeypatch.setattr(repro, "__version__", PLAN_PINS_VERSION)
    spec = load_sweep_file(Path(__file__).resolve().parents[1] / path)
    digest = hashlib.sha256(
        plan_document(spec, 1.0, 0).encode("utf-8")).hexdigest()
    assert digest == PLAN_PINS[path]


REPO = Path(__file__).resolve().parents[1]
SPEC_FILES = [*sorted((REPO / "examples" / "sweeps").glob("*.yaml")),
              REPO / "bench" / "specs" / "engine_grid.yaml"]
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader]
                               if hasattr(yaml, "CSafeLoader") else [])


class TestSpecLoader:
    """Specs load with libyaml's ``CSafeLoader`` where ``yaml`` has it;
    it must read every shipped spec as the pure-Python ``SafeLoader``
    does, down to the unit cache keys."""

    def test_libyaml_is_picked_when_present(self):
        assert sweep_module._SPEC_LOADER is getattr(yaml, "CSafeLoader",
                                                    yaml.SafeLoader)

    @pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
    def test_both_loaders_read_a_spec_alike(self, path, monkeypatch):
        if len(LOADERS) < 2:
            pytest.skip("yaml was built without libyaml")
        text = path.read_text()
        # repr, not ==: 8 and 8.0 are equal but key differently.
        docs = {repr(yaml.load(text, Loader=loader)) for loader in LOADERS}
        assert len(docs) == 1
        specs, keys = [], []
        for loader in LOADERS:
            monkeypatch.setattr(sweep_module, "_SPEC_LOADER", loader)
            specs.append(load_sweep_file(path))
            keys.append([unit.cache_key()
                         for unit in compile_units(specs[-1], 0.05, 3)])
        assert specs[0] == specs[1]
        assert keys[0] == keys[1]

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda l: l.__name__)
    def test_malformed_yaml_is_a_usage_error(self, loader, tmp_path,
                                             monkeypatch, capsys):
        from repro.experiments.runner import main
        monkeypatch.setattr(sweep_module, "_SPEC_LOADER", loader)
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nscenario: [leafspine_mix\naxes: {\n",
                       encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "plan", str(bad)])
        assert excinfo.value.code == 2
        assert "invalid sweep spec" in capsys.readouterr().err
