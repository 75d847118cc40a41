"""Benchmark: fluid vs packet substrate cross-validation."""

from benchmarks.conftest import bench_scale
from repro.experiments.engine import run_experiments


def test_crossval(once):
    results, _report = once(run_experiments, ["crossval"],
                            scale=bench_scale(), seed=0, jobs=1)
    result = results["crossval"]
    print()
    print(result.render())
    assert result.data["mark_rank_correlation"] > 0.5
    assert result.data["queue_rank_correlation"] > 0.5
