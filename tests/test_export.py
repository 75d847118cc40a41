"""Tests for JSON export of experiment results."""

import enum
import io
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis import export
from repro.analysis.export import (jsonable, pretty_json, result_to_dict,
                                   write_json, write_result,
                                   write_run_report)
from repro.experiments.result import ExperimentResult


class TestJsonable:
    def test_scalars_pass_through(self):
        assert jsonable(5) == 5
        assert jsonable("x") == "x"
        assert jsonable(None) is None
        assert jsonable(True) is True

    def test_numpy_scalars(self):
        assert jsonable(np.int64(3)) == 3
        assert jsonable(np.float64(2.5)) == 2.5
        assert jsonable(np.bool_(True)) is True

    def test_nan_becomes_none(self):
        assert jsonable(np.float64("nan")) is None

    def test_small_array(self):
        assert jsonable(np.asarray([1, 2, 3])) == [1, 2, 3]

    def test_zero_dimensional_array_is_its_scalar(self):
        assert jsonable(np.asarray(2.5)) == 2.5
        assert jsonable(np.asarray(float("nan"))) is None

    def test_float_array_with_nan(self):
        out = jsonable(np.asarray([1.0, float("nan")]))
        assert out[0] == 1.0
        assert out[1] is None

    def test_huge_array_summarized(self):
        out = jsonable(np.zeros(200_000))
        assert out["__array_summary__"] is True
        assert out["shape"] == [200000]

    def test_nested_containers(self):
        out = jsonable({"a": [np.int64(1), (2, 3)], 4: "x"})
        assert out == {"a": [1, [2, 3]], "4": "x"}

    def test_opaque_objects_become_placeholders(self):
        class Widget:
            pass

        assert jsonable(Widget()) == "<Widget>"


class TestWriteResult:
    def make_result(self):
        result = ExperimentResult("fig_test", "a test figure")
        result.add_section("table goes here")
        result.data["values"] = np.asarray([1.0, 2.0])
        result.data["opaque"] = object()
        return result

    def test_roundtrips_through_json(self, tmp_path):
        path = write_result(self.make_result(), tmp_path)
        assert path.name == "fig_test.json"
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "fig_test"
        assert loaded["sections"] == ["table goes here"]
        assert loaded["data"]["values"] == [1.0, 2.0]
        assert loaded["data"]["opaque"] == "<object>"

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_result(self.make_result(), target)
        assert (target / "fig_test.json").exists()

    def test_result_to_dict_shape(self):
        doc = result_to_dict(self.make_result())
        assert set(doc) == {"name", "description", "sections", "data"}


class Colour(enum.IntEnum):
    """``jsonable`` hands an int subclass back as it is."""
    RED = 1


class Exportable:
    """Anything with ``export_dict()`` exports that, normalised."""

    def export_dict(self):
        return {"mean": np.float64(1.5), 3: (np.int64(1), float("nan"))}


class Opaque:
    """No JSON form at all: exports as ``"<Opaque>"``."""


def streamed_bytes(result) -> bytes:
    """The export as it was written before it was built in memory first:
    ``json.dump`` streaming chunk by chunk into the open file."""
    handle = io.StringIO()
    json.dump(result_to_dict(result), handle, indent=2, allow_nan=False,
              default=lambda o: f"<{type(o).__name__}>")
    return handle.getvalue().encode("utf-8")


def awkward_result() -> ExperimentResult:
    """Everything the export has to sanitise, in one result."""
    result = ExperimentResult("awkward", "naïve — 突发 µs")
    result.add_section("table ✓")
    # The header is encoded as it stands, never normalised: an opaque
    # object and a numpy int print placeholders, np.float64 is a float.
    result.sections += [object(), np.int64(3), np.float64(1.5), ("a", 1)]
    result.data = {
        "nan": float("nan"), "np_nan": np.float64("nan"),
        "np_scalars": [np.int64(3), np.float32(0.5), np.bool_(False)],
        "array": np.asarray([[1.0, float("nan")], [2.5, -0.0]]),
        "text": "ünïcode \u2028 \"quoted\"",
        "nested": ((1, (2.0, "x")), [(), {"k": (None,)}]),
        "opaque": object(),
        7: "non-string key",
        "enum": Colour.RED, "cdf": Exportable(),
        "inner": ExperimentResult("inner", "nested", [object()],
                                  {"x": np.float32(0.25), 2: (1,)}),
    }
    return result


class TestExportBytes:
    def test_awkward_result_matches_the_streamed_export(self, tmp_path):
        result = awkward_result()
        assert write_result(result, tmp_path).read_bytes() \
            == streamed_bytes(result)

    def test_golden_sweep_matches_the_streamed_export(self, tmp_path):
        from repro.experiments.sweep import run_sweep
        from repro.tools.golden import SCALE, SEED, golden_sweep_specs
        result, _report = run_sweep(golden_sweep_specs()["sweep_ecn_k"],
                                    scale=SCALE, seed=SEED, jobs=1)
        assert write_result(result, tmp_path).read_bytes() \
            == streamed_bytes(result)

    def test_unsanitised_nan_still_raises(self, tmp_path):
        result = ExperimentResult("bad", "")
        result.sections.append(float("nan"))    # bypasses jsonable()
        with pytest.raises(ValueError, match=r"nan at sections\[0\]"):
            write_result(result, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_the_literal_text_of_a_small_document(self):
        """The rules with no oracle in between: bool before int, tuples
        as lists, ``str(key)`` keys, ``ensure_ascii`` escapes, ``{}`` and
        ``[]`` for empties, NaN as null."""
        document = {"flag": True, "n": 1, True: (1.5, None), None: {},
                    "text": "\u00fc\u2028\x01\"\\", "empty": [[], ()],
                    "nan": float("nan")}
        assert pretty_json(document) == """{
  "flag": true,
  "n": 1,
  "True": [
    1.5,
    null
  ],
  "None": {},
  "text": "\\u00fc\\u2028\\u0001\\"\\\\",
  "empty": [
    [],
    []
  ],
  "nan": null
}"""

    def test_keys_that_collide_as_text_keep_the_last_value(self):
        document = {"a": 0, 1: "int", "1": "str", "z": {2.0: 1, "2.0": 2}}
        assert pretty_json(document) \
            == json.dumps(jsonable(document), indent=2)
        assert json.loads(pretty_json(document))["1"] == "str"

    def test_an_int_enum_does_not_recurse_forever(self):
        assert pretty_json([Colour.RED, {"k": Colour.RED}]) \
            == json.dumps([1, {"k": 1}], indent=2)


class TestNonFiniteValuesNameTheirLocation:
    """JSON has no infinity, and a NaN outside ``data`` is a rendering
    bug: both stay ``ValueError`` s that leave no file, and the message
    says where in the document the value sits."""

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       np.float64("inf"), np.float32("-inf")])
    def test_infinity_in_data_raises_with_its_path(self, value, tmp_path):
        result = ExperimentResult("grid", "")
        result.data = {"points": {
            "ecn_threshold_packets=8,n_mice=16": {
                "fct": {"mice_fct_ms": {"mean": value}}}}}
        with pytest.raises(ValueError) as excinfo:
            write_result(result, tmp_path)
        assert ('data.points["ecn_threshold_packets=8,n_mice=16"]'
                '.fct.mice_fct_ms.mean') in str(excinfo.value)
        assert "inf" in str(excinfo.value)
        assert list(tmp_path.iterdir()) == []

    def test_list_indices_and_nested_results_are_part_of_the_path(self):
        inner = ExperimentResult(
            "inner", "", [], {"rows": [[1.0], (2.0, float("inf"))]})
        with pytest.raises(
                ValueError,
                match=r"at \[1\]\.inner\.data\.rows\[1\]\[1\]$"):
            pretty_json([0, {"inner": inner}])

    def test_a_bare_infinity_is_at_the_document_root(self):
        with pytest.raises(ValueError, match="document root"):
            pretty_json(float("inf"))

    def test_a_rebuilt_key_appears_once(self):
        # The non-text key 2 prints as "2"; it once also showed as [2].
        with pytest.raises(ValueError, match=r'inf at a\["2"\]\[0\]$'):
            pretty_json({"a": {2: [math.inf]}})

    def test_run_report_and_plain_documents_too(self, tmp_path):
        class Report:
            def to_dict(self):
                return {"units": [{"wall_s": float("-inf")}]}
        with pytest.raises(ValueError, match=r"-inf at units\[0\]\.wall_s"):
            write_run_report(Report(), tmp_path)
        assert list(tmp_path.iterdir()) == []


# --- the writer against the two-step path it replaced -----------------------

BIG_ARRAY = np.zeros(export._MAX_ARRAY_EXPORT + 1)

json_floats = (st.floats(allow_nan=True, allow_infinity=False)
               | st.sampled_from([-0.0, 1e16, 1e-7, 5e-324,
                                  2.2250738585072014e-308, float("nan")]))
json_text = st.text() | st.sampled_from(
    ["", "na\u00efve \u7a81\u53d1 \u00b5s", "\"quoted\" \\ back",
     "\x00\x1f\x7f\u2028\u2029", "\U0001f600"])
plain_leaves = (st.none() | st.booleans() | json_floats | json_text
                | st.integers(-2**70, 2**70))
numpy_leaves = st.sampled_from([
    np.int64(-3), np.uint8(7), np.float32(0.5), np.float64(2.5),
    np.float64("nan"), np.bool_(True), np.asarray(7.0), np.asarray(3),
    np.asarray([1.0, float("nan"), -0.0]), np.arange(6).reshape(2, 3),
    np.asarray([], dtype=np.float64), np.asarray([True, False]), BIG_ARRAY])
object_leaves = st.sampled_from([
    Colour.RED, Exportable(), Opaque(), object(),
    ExperimentResult("inner", "nested", ["a table"],
                     {"x": np.float32(0.25), 2: (1,), "deep": Exportable()})])
json_keys = json_text | st.integers(-5, 5) | st.booleans() | st.none() \
    | st.sampled_from([1.5, Colour.RED])


def containers(children):
    """Lists, tuples and dicts (empty ones included) of ``children``."""
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(json_keys, children, max_size=4))


documents = st.recursive(plain_leaves | numpy_leaves | object_leaves,
                         containers, max_leaves=25)


def nest(leaf, depth):
    """``leaf`` under ``depth`` alternating dict/list/tuple levels."""
    for level in range(depth):
        leaf = [{"k": leaf}, [leaf, {}], (leaf, [])][level % 3]
    return leaf


class Shouting(str):
    """A key type the writer must not treat as the plain ``str`` it
    equals: ``jsonable`` keys by ``str(key)``, which this changes."""

    def __str__(self) -> str:
        return self.upper()


#: A few key sets, so drawn documents repeat dict shapes.
shared_keys = st.sampled_from(["a", "b", "c", "A", Shouting("a"), 1, "1"])


class TestWriterMatchesNormaliseThenDump:
    """The single-walk writer is an optimisation, not a format: for any
    document it must print what ``jsonable()`` followed by the stdlib's
    ``json.dumps(indent=2, allow_nan=False)`` printed, byte for byte.
    That holds too for the key text it caches per dict shape, however
    the next dict with equal keys differs from the one that filled the
    cache."""

    @given(documents)
    @example(nest(np.float64("nan"), 6))
    @example(nest({}, 6))
    @example(nest(Exportable(), 7))
    @example({0: "int", "0": "str", False: [], None: ()})
    def test_any_document(self, document):
        assert pretty_json(document) == json.dumps(
            jsonable(document), indent=2, allow_nan=False)

    @given(data=st.dictionaries(json_keys, documents, max_size=4),
           description=json_text,
           sections=st.lists(json_text | st.sampled_from(
               [object(), np.int64(3), np.float64(1.5), 2.5, 7, None,
                ("cell", 1), ["row"], Colour.RED]), max_size=4))
    def test_any_result_matches_the_streamed_export(
            self, data, description, sections, tmp_path_factory):
        result = ExperimentResult("drawn", description, sections, data)
        directory = tmp_path_factory.mktemp("drawn")
        assert write_result(result, directory).read_bytes() \
            == streamed_bytes(result)


    @staticmethod
    def assert_reference(document) -> None:
        assert pretty_json(document) == json.dumps(
            jsonable(document), indent=2, allow_nan=False)

    def test_many_dicts_share_one_key_set(self):
        self.assert_reference({"rows": [
            {"name": f"p{i}", "n": i, "mean": i / 7, "tail": {"p99": i}}
            for i in range(50)]})

    def test_the_same_keys_in_another_order(self):
        self.assert_reference([{"a": 1, "b": 2.5, "c": "x"},
                               {"c": "y", "a": 3, "b": 4.5},
                               {"a": 5, "b": 6.5, "c": "z"}])

    def test_str_subclass_keys_after_their_plain_twins(self):
        # Shouting("a") == "a" and hashes alike, so the second dict finds
        # the first one's tokens; its key must still print as "A".
        self.assert_reference([{"a": 1, "b": 2}, {Shouting("a"): 1, "b": 2},
                               {"a": 3, "b": 4}])

    def test_keys_that_collide_under_str(self):
        self.assert_reference([{"1": "text"}, {1: "int", "1": "text"},
                               {"A": 0, Shouting("a"): 1}, {"1": "again"}])

    def test_more_shapes_than_the_table_holds(self):
        shapes = export._KEY_TOKEN_SHAPES + 10
        document = [{f"k{i}": i, "v": [i]} for i in range(shapes)]
        self.assert_reference(document + document[:20])
        assert len(export._key_tokens) <= export._KEY_TOKEN_SHAPES

    def test_infinity_under_a_cached_shape_names_its_place(self):
        with pytest.raises(ValueError, match=r"inf at \[1\]\.mean"):
            pretty_json([{"n": 1, "mean": 1.0}, {"n": 2, "mean": math.inf}])

    @given(st.lists(st.dictionaries(shared_keys,
                                    plain_leaves | st.lists(plain_leaves,
                                                            max_size=2),
                                    max_size=3), max_size=8))
    def test_any_run_of_repeated_shapes(self, document):
        self.assert_reference(document)


class _Report:
    def to_dict(self):
        return {"n_units": 2, "wall_s": np.float64(0.5)}


def dump_telemetry(directory):
    """``telemetry_view --dump-json`` into ``directory`` (its input, a
    run report with a telemetry section, lives beside the directory)."""
    from repro.tools.telemetry_view import main
    source = directory.with_name(directory.name + "-run_report.json")
    source.write_text(json.dumps({"telemetry": TELEMETRY}))
    return main([str(source), "--dump-json",
                 str(directory / "telemetry.json")])


TELEMETRY = {"fig5/panel:mode1": {
    "interval_ns": 1_000_000, "hosts": {"receiver": {
        "ingress_bytes": [0, 1500, 125000], "flow_count": []}},
    "queues": {"torB->receiver": {"peak_packets": [0.0, 12.5]}},
    "label": "\u00b5s \u2014 burst"}}


class TestExportIsAllOrNothing:
    """A crash mid-export must not leave a truncated, unparseable JSON
    where a reader (or a resumed campaign) expects a whole one."""

    @pytest.fixture
    def failing_encoder(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("killed mid-export")
        # write_json's one serialiser, looked up in its module at call time.
        monkeypatch.setattr(export, "pretty_json", boom)

    @pytest.mark.parametrize("write, name", [
        (lambda d: write_result(ExperimentResult("fig_x", ""), d),
         "fig_x.json"),
        (lambda d: write_run_report(_Report(), d), "run_report.json"),
        (dump_telemetry, "telemetry.json")])
    def test_failed_export_leaves_nothing_and_clobbers_nothing(
            self, write, name, tmp_path, failing_encoder):
        with pytest.raises(RuntimeError):
            write(tmp_path)
        assert list(tmp_path.iterdir()) == []    # no file, no temp file
        (tmp_path / name).write_text("previous export")
        with pytest.raises(RuntimeError):
            write(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name).read_text() == "previous export"

    def test_failed_write_removes_its_temp_file(self, tmp_path,
                                                monkeypatch):
        def full_disk(src, dst):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(export, "os", SimpleNamespace(
            replace=full_disk, getpid=os.getpid))
        with pytest.raises(OSError):
            write_result(ExperimentResult("fig_x", ""), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_telemetry_dump_bytes_are_the_stdlib_streams(self, tmp_path):
        """What ``json.dump(telemetry, handle, indent=2)`` wrote."""
        assert dump_telemetry(tmp_path) == 0
        assert (tmp_path / "telemetry.json").read_text(encoding="utf-8") \
            == json.dumps(TELEMETRY, indent=2)

    def test_a_successful_export_never_unlinks(self, tmp_path, monkeypatch):
        """After ``os.replace`` the temp name is gone; unlinking it anyway
        was a doomed syscall and a swallowed ``FileNotFoundError``."""
        calls = []
        monkeypatch.setattr(export.Path, "unlink",
                            lambda self, **kwargs: calls.append(self))
        write_json({"k": 1}, tmp_path / "doc.json")
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_successful_export_replaces_and_leaves_no_temp(self, tmp_path):
        (tmp_path / "run_report.json").write_text("previous export")
        path = write_run_report(_Report(), tmp_path)
        assert json.loads(path.read_text()) == {"n_units": 2, "wall_s": 0.5}
        assert [p.name for p in tmp_path.iterdir()] == ["run_report.json"]
