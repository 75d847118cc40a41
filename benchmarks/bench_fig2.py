"""Benchmark: regenerate Figure 2 (burst frequency/duration/flow CDFs)."""

from benchmarks.conftest import fleet_scale
from repro.experiments.engine import run_experiments


def test_fig2(once):
    results, _report = once(run_experiments, ["fig2"],
                            scale=fleet_scale(), seed=0, jobs=1)
    result = results["fig2"]
    print()
    print(result.render())
    flows = result.data["flow_cdfs"]
    # Paper: p99 incast degree reaches 200-500 for the big services.
    assert flows["video"].percentile(99) > 200
    assert flows["aggregator"].percentile(99) > 200
