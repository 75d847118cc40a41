"""Tests for JSON export of experiment results."""

import io
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import export
from repro.analysis.export import (jsonable, result_to_dict, write_result,
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
    result.sections.append(object())            # reaches json's default=
    result.data = {
        "nan": float("nan"), "np_nan": np.float64("nan"),
        "np_scalars": [np.int64(3), np.float32(0.5), np.bool_(False)],
        "array": np.asarray([[1.0, float("nan")], [2.5, -0.0]]),
        "text": "ünïcode \u2028 \"quoted\"",
        "nested": ((1, (2.0, "x")), [(), {"k": (None,)}]),
        "opaque": object(),
        7: "non-string key",
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
        with pytest.raises(ValueError):
            write_result(result, tmp_path)
        assert list(tmp_path.iterdir()) == []


class _Report:
    def to_dict(self):
        return {"n_units": 2, "wall_s": np.float64(0.5)}


class TestExportIsAllOrNothing:
    """A crash mid-export must not leave a truncated, unparseable JSON
    where a reader (or a resumed campaign) expects a whole one."""

    @pytest.fixture
    def failing_dumps(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("killed mid-export")
        # Swap the module's own reference, not the process-wide json.
        monkeypatch.setattr(export, "json", SimpleNamespace(dumps=boom))

    @pytest.mark.parametrize("write, name", [
        (lambda d: write_result(ExperimentResult("fig_x", ""), d),
         "fig_x.json"),
        (lambda d: write_run_report(_Report(), d), "run_report.json")])
    def test_failed_export_leaves_nothing_and_clobbers_nothing(
            self, write, name, tmp_path, failing_dumps):
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

    def test_successful_export_replaces_and_leaves_no_temp(self, tmp_path):
        (tmp_path / "run_report.json").write_text("previous export")
        path = write_run_report(_Report(), tmp_path)
        assert json.loads(path.read_text()) == {"n_units": 2, "wall_s": 0.5}
        assert [p.name for p in tmp_path.iterdir()] == ["run_report.json"]
