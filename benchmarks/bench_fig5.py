"""Benchmark: regenerate Figure 5 (DCTCP operating modes)."""

from benchmarks.conftest import bench_scale
from repro.core.modes import DctcpMode
from repro.experiments.engine import run_experiments


def test_fig5(once):
    results, _report = once(run_experiments, ["fig5"],
                            scale=bench_scale(), seed=0, jobs=1)
    result = results["fig5"]
    print()
    print(result.render())
    assert result.data["mode1_healthy"].steady_drops == 0
    assert result.data["mode3_timeouts"].mode is DctcpMode.TIMEOUT
    assert (result.data["mode3_timeouts"].mean_bct_ms
            > 10 * result.data["mode3_timeouts"].optimal_bct_ms)
