"""Benchmark: regenerate Figure 1 (example 2 s aggregator trace)."""

from benchmarks.conftest import fleet_scale
from repro.experiments.engine import run_experiments


def test_fig1(once):
    results, _report = once(run_experiments, ["fig1"],
                            scale=fleet_scale(), seed=17, jobs=1)
    result = results["fig1"]
    print()
    print(result.render())
    # Paper headline: low average utilization, line-rate bursts, most
    # traffic inside bursts.
    assert result.data["mean_utilization"] < 0.35
    assert result.data["burst_traffic_share"] > 0.5
