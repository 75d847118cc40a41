"""Benchmark: regenerate Figure 3 (temporal and cross-host stability)."""

from benchmarks.conftest import fleet_scale
from repro.experiments.engine import run_experiments


def test_fig3(once):
    # Full scale = 108 snapshots x 20 hosts (the paper's 18-hour study).
    results, _report = once(run_experiments, ["fig3"],
                            scale=0.5 * fleet_scale(), seed=0, jobs=1)
    result = results["fig3"]
    print()
    print(result.render())
    for service, report in result.data["temporal"].items():
        assert report.cov_of_means < 0.3, service
    assert result.data["cross_host"].is_stable()
