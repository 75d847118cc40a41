"""Benchmark: regenerate Figure 7 (per-flow in-flight skew)."""

from benchmarks.conftest import bench_scale
from repro.experiments.engine import run_experiments


def test_fig7(once):
    results, _report = once(run_experiments, ["fig7"],
                            scale=bench_scale(), seed=0, jobs=1)
    result = results["fig7"]
    print()
    print(result.render())
    report = result.data["report"]
    # Paper: a long tail of flows holds several times the average.
    assert report.tail_skew > 1.5
