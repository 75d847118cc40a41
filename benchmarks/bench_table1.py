"""Benchmark: regenerate Table 1 (service inventory + fleet character)."""

from benchmarks.conftest import fleet_scale
from repro.experiments.engine import run_experiments


def test_table1(once):
    results, _report = once(run_experiments, ["table1"],
                            scale=fleet_scale(), seed=0, jobs=1)
    result = results["table1"]
    print()
    print(result.render())
    assert len(result.data["rows"]) == 5
