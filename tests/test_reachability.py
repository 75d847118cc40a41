"""The reachability audit (``python -m tests.reachability``) on one cheap
surface command: its recorder, its enumerator and its allowlist check."""

from __future__ import annotations

import pytest

from tests import reachability


@pytest.fixture(scope="module")
def fig1_audit(tmp_path_factory):
    work = tmp_path_factory.mktemp("audit") / "work"
    records = reachability.prepare_tree(work)
    failed = reachability.run_recorded(
        [("fig1", "python -m repro.experiments -e fig1 --scale 0.05 "
                  "--jobs 1 --no-cache --json-dir out")], work, records)
    assert failed == []
    entered, knobs = reachability.read_records(records)
    return reachability.enumerate_functions(), entered, knobs


def test_unreached_functions_are_absent_from_the_records(fig1_audit):
    functions, entered, _ = fig1_audit
    ids = {functions[key]["id"] for key in entered if key in functions}
    assert "repro.experiments.fig1:run_unit" in ids
    assert "repro.experiments.runner:main" in ids
    missed = reachability.unreached(functions, entered)
    assert "repro.experiments.fig6:merge" in {f["id"] for f in missed}
    # Independent of the (path, first line, name) key: no recorded code
    # object of that name starts anywhere inside a reported def.
    for info in missed:
        assert not any(
            path == info["path"] and name == info["name"]
            and info["first"] <= line <= info["last"]
            for path, line, name in entered), info["id"]


def test_a_stale_allowlist_entry_is_an_error(fig1_audit):
    functions = fig1_audit[0]
    knobs = reachability.enumerate_knobs()
    assert reachability.stale_allowlist(functions, knobs) == []
    assert reachability.stale_allowlist(
        functions, knobs, {"repro.units:no_such_function": "gone",
                           "repro.units:gbps": " "}) == [
        "repro.units:gbps", "repro.units:no_such_function"]
