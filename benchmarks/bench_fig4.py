"""Benchmark: regenerate Figure 4 (queueing/ECN/retransmission CDFs)."""

from benchmarks.conftest import fleet_scale
from repro.experiments.engine import run_experiments


def test_fig4(once):
    results, _report = once(run_experiments, ["fig4"],
                            scale=fleet_scale(), seed=0, jobs=1)
    result = results["fig4"]
    print()
    print(result.render())
    marks = result.data["mark_cdfs"]
    assert marks["aggregator"].percentile(90) > 0.6
    retx = result.data["retx_cdfs"]
    assert retx["aggregator"].percentile(99.9) < 0.25
