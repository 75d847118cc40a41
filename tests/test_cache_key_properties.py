"""Property tests for :meth:`WorkUnit.cache_key`.

The cache key is the engine's load-bearing identity: payload reuse across
runs, experiment deduplication within a run, and the guarantee that a
fault-recovered retry is indistinguishable from a fault-free execution all
reduce to "equal inputs ⇒ equal key, different inputs ⇒ different key".
Hypothesis pins the three properties the engine leans on: invariance under
params-dict insertion order, disjointness across ``seed`` / ``scale`` /
``telemetry`` and across sweep grid points (dotted config paths
included), and stability of the key for a fixed unit across processes.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.engine.spec import WorkUnit
from repro.experiments.sweep import SweepSpec, compile_units

#: JSON-able parameter values (no NaN: WorkUnit params must round-trip).
param_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.lists(st.integers(min_value=-100, max_value=100), max_size=4),
)

param_dicts = st.dictionaries(st.text(min_size=1, max_size=12),
                              param_values, max_size=6)

#: Keys as specs write them: free text and dotted config paths.
param_keys = st.one_of(
    st.text(min_size=1, max_size=12),
    st.from_regex(r"[a-z_]{1,8}\.[a-z_]{1,8}", fullmatch=True))

#: Params with nested dicts and lists, keys plain or dotted.
nested_param_dicts = st.dictionaries(
    param_keys,
    st.recursive(param_values, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(param_keys, inner, max_size=4)), max_leaves=10),
    max_size=6)

#: ``dumbbell_incast`` grid points, flat and dotted keys mixed.
dumbbell_points = st.fixed_dictionaries({}, optional={
    "n_flows": st.integers(1, 2_000),
    "n_bursts": st.integers(1, 20),
    "dumbbell.ecn_threshold_packets": st.integers(1, 1000),
    "dumbbell.shared_buffer_bytes": st.one_of(
        st.none(), st.integers(100_000, 4_000_000)),
    "tcp.delayed_ack": st.booleans(),
    "tcp.init_cwnd_segments": st.integers(1, 20),
})


def point_key(point: dict) -> str:
    """Cache key of ``point`` as a one-unit ``dumbbell_incast`` sweep."""
    spec = SweepSpec(name="p", scenario="dumbbell_incast", fixed=point)
    return compile_units(spec, scale=0.1, seed=3)[0].cache_key()


def unit(**overrides) -> WorkUnit:
    fields = dict(experiment="fig6", unit_id="flows:50",
                  fn="repro.experiments.sweep:run_unit",
                  params={"n_flows": 50}, scale=0.1, seed=3)
    fields.update(overrides)
    return WorkUnit(**fields)


class TestInsertionOrderInvariance:
    @given(params=param_dicts, order=st.randoms(use_true_random=False))
    def test_key_ignores_params_insertion_order(self, params, order):
        items = list(params.items())
        order.shuffle(items)
        shuffled = dict(items)
        assert shuffled == params  # same mapping, possibly new order
        assert unit(params=shuffled).cache_key() \
            == unit(params=params).cache_key()

    @given(params=param_dicts)
    def test_key_is_deterministic_within_a_process(self, params):
        assert unit(params=params).cache_key() \
            == unit(params=params).cache_key()


class TestCanonicalEncoding:
    @given(params=nested_param_dicts)
    def test_key_is_sha256_of_the_canonical_json_dump(self, params):
        """The module-level encoder is the same canonical JSON a fresh
        ``json.dumps`` call would write, byte for byte, so keys (and the
        cache entries filed under them) carry over unchanged."""
        probe = unit(params=params)
        token = json.dumps(probe.identity(), sort_keys=True,
                           separators=(",", ":"))
        assert probe.cache_key() \
            == hashlib.sha256(token.encode("utf-8")).hexdigest()

    @given(params=nested_param_dicts)
    def test_key_follows_a_mutated_params_dict(self, params):
        """``params`` is a mutable dict, so no key may be remembered on
        the instance: a mutation shows in the next key."""
        probe = unit(params=dict(params))
        before = probe.cache_key()
        probe.params["__mutated__"] = True
        assert probe.cache_key() != before


class TestDisjointness:
    @given(a=st.integers(min_value=0, max_value=2**31),
           b=st.integers(min_value=0, max_value=2**31))
    def test_distinct_seeds_never_collide(self, a, b):
        ka, kb = unit(seed=a).cache_key(), unit(seed=b).cache_key()
        assert (ka == kb) == (a == b)

    @given(a=st.floats(min_value=1e-3, max_value=1e3,
                       allow_nan=False, allow_infinity=False),
           b=st.floats(min_value=1e-3, max_value=1e3,
                       allow_nan=False, allow_infinity=False))
    def test_distinct_scales_never_collide(self, a, b):
        ka, kb = unit(scale=a).cache_key(), unit(scale=b).cache_key()
        assert (ka == kb) == (a == b)

    @given(interval=st.integers(min_value=1, max_value=10**9))
    def test_telemetry_spec_partitions_the_key_space(self, interval):
        """A telemetry run must never be satisfied by (or pollute) a
        telemetry-off cache entry — the engine injects the spec into
        params precisely to split the key space."""
        plain = unit()
        telemetered = unit(params={**plain.params,
                                   "telemetry": {"interval_ns": interval}})
        assert plain.cache_key() != telemetered.cache_key()

    @given(params=param_dicts)
    def test_execution_context_never_reaches_the_key(self, params):
        """Experiment attribution and scheduling hints are not identity;
        retry attempts and fault specs never appear in identity() at all."""
        base = unit(params=params)
        relabeled = unit(params=params, experiment="other",
                         unit_id="whatever", cost_hint=99.0)
        assert base.cache_key() == relabeled.cache_key()
        assert set(base.identity()) == {"fn", "params", "scale", "seed",
                                        "version"}


class TestDottedSweepPoints:
    @given(a=dumbbell_points, b=dumbbell_points)
    def test_distinct_points_never_collide(self, a, b):
        assert (point_key(a) == point_key(b)) == (a == b)

    @given(point=dumbbell_points, order=st.randoms(use_true_random=False))
    def test_key_ignores_dotted_insertion_order(self, point, order):
        items = list(point.items())
        order.shuffle(items)
        assert point_key(dict(items)) == point_key(point)


class TestCrossProcessStability:
    # One subprocess spawn, not one per example: the property is that the
    # token construction has no per-process state (hash randomization,
    # set/dict iteration order), which a single fixed unit witnesses.
    @settings(max_examples=1, deadline=None)
    @given(st.just(None))
    def test_key_is_stable_across_processes(self, _):
        probe = unit(params={"n_flows": 50, "nested": {"b": 2, "a": [1.5]},
                             "tag": "x"})
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "from repro.experiments.engine.spec import WorkUnit\n"
            "print(WorkUnit(experiment='fig6', unit_id='flows:50',\n"
            "      fn='repro.experiments.sweep:run_unit',\n"
            "      params={'tag': 'x', 'nested': {'a': [1.5], 'b': 2},\n"
            "              'n_flows': 50},\n"
            "      scale=0.1, seed=3).cache_key())\n")
        for hashseed in ("0", "42", "random"):
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hashseed,
                     "PATH": "/usr/bin:/bin"})
            assert out.stdout.strip() == probe.cache_key(), \
                f"key drifted under PYTHONHASHSEED={hashseed}"
