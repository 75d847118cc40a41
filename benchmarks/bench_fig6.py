"""Benchmark: regenerate Figure 6 (2 ms bursts, the common case)."""

import numpy as np

from benchmarks.conftest import bench_scale
from repro.experiments.engine import run_experiments


def test_fig6(once):
    results, _report = once(run_experiments, ["fig6"],
                            scale=bench_scale(), seed=0, jobs=1)
    result = results["fig6"]
    print()
    print(result.render())
    peaks = []
    for n_flows in (50, 100, 200, 500):
        sim_result = result.data[f"flows_{n_flows}"]
        finite = sim_result.aligned_queue_packets[
            np.isfinite(sim_result.aligned_queue_packets)]
        peaks.append(float(finite.max()))
    assert peaks == sorted(peaks)
