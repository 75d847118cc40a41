"""Golden-result regression suite.

Every fast experiment (and a layer-diverse set of ablations) runs at a
small fixed scale/seed; its scalar metric leaves are compared against the
committed fixtures in ``tests/golden/``. A change in any layer of the
stack shows up here as a named metric diff.

After an intentional behaviour change, regenerate with::

    PYTHONPATH=src python -m repro.tools.golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.tools import golden

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = golden.golden_cases()


def test_fixture_set_matches_cases():
    """Committed fixtures and declared cases must stay in sync."""
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert committed == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name: str):
    expected = json.loads(
        (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert expected["scale"] == golden.SCALE
    assert expected["seed"] == golden.SEED
    actual = golden.golden_payload(CASES[name]())
    problems = golden.compare_payloads(expected, actual)
    assert not problems, (
        f"{name}: {len(problems)} metric(s) drifted from the golden "
        f"fixture:\n  " + "\n  ".join(problems[:20])
        + "\n(regenerate with `python -m repro.tools.golden` if the "
          "change is intentional)")


def test_unknown_case_is_rejected(capsys):
    """A misspelt ``--case`` must fail loudly, not check nothing."""
    with pytest.raises(SystemExit) as exc:
        golden.main(["--check", "--case", "no_such_case"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no_such_case" in err
    assert "fig1" in err and "verdict" in err
