#!/usr/bin/env python3
"""Predict-and-prevent: from fleet measurement to CWND guardrails.

The paper's closing argument (Sections 3.3 and 5.1): per-service incast
degree is stable enough to *predict*, so hosts can prepare for bursts
instead of reacting to them. This example walks the full loop:

1. measure a synthetic service fleet (Millisampler-style captures);
2. feed per-burst incast degrees into the predictor, check stability;
3. convert the p99 degree forecast into a per-flow CWND cap;
4. simulate the same incast with and without the guardrail and compare
   queue spikes and completion times.

Run:  python examples/predict_and_prevent.py
"""

import numpy as np

from repro import units
from repro.analysis.tables import format_table
from repro.core.metrics import summarize_trace
from repro.core.predictor import GuardrailAdvisor, IncastDegreePredictor
from repro.experiments.environment import IncastSimConfig, run_incast_sim
from repro.measurement.records import TraceMeta
from repro.netsim.topology import DumbbellConfig
from repro.simcore.random import RngHub
from repro.workloads.services import SERVICE_PROFILES, generate_host_trace

SERVICE = "indexer"


def measure_and_predict() -> IncastDegreePredictor:
    """Phase 1-2: sample the service across snapshots, train the predictor."""
    predictor = IncastDegreePredictor()
    hub = RngHub(42)
    for snapshot in range(6):
        trace = generate_host_trace(
            SERVICE_PROFILES[SERVICE],
            TraceMeta(service=SERVICE, host_id=0, snapshot_index=snapshot),
            hub.fresh(f"snap{snapshot}"), duration_ms=1000)
        summary = summarize_trace(trace)
        predictor.observe_snapshot(summary.flow_counts)
        forecast = predictor.forecast()
        print(f"  snapshot {snapshot}: {summary.n_bursts} bursts, "
              f"mean degree {summary.mean_flow_count():.0f}, forecast "
              f"mean={forecast.mean:.0f} p99={forecast.p99:.0f} "
              f"stable={forecast.stable}")
    return predictor


def main() -> None:
    print(f"Measuring service {SERVICE!r} and training the predictor ...")
    predictor = measure_and_predict()

    dumbbell = DumbbellConfig()
    advisor = GuardrailAdvisor(
        ecn_threshold_packets=dumbbell.ecn_threshold_packets or 0,
        bdp_bytes=dumbbell.bdp_bytes, mss_bytes=1460)
    cap = advisor.advise(predictor)
    forecast = predictor.forecast()
    if cap is None:
        print("Predictor not yet stable; no guardrail recommended.")
        return
    print(f"\nForecast p99 incast degree: {forecast.p99:.0f} flows")
    print(f"Recommended per-flow CWND cap: {cap} bytes "
          f"({cap / 1460:.1f} segments)")

    # Phase 4: validate in simulation at the forecast degree.
    n_flows = max(int(round(forecast.p99)), 1)
    rows = []
    # The guardrail scheme sizes its cap for the planned degree exactly as
    # the advisor did for the forecast: the run enforces ``cap``.
    for label, scheme in (("DCTCP", "dctcp"), ("DCTCP + guardrail",
                                               "guardrail")):
        config = IncastSimConfig(
            n_flows=n_flows,
            burst_duration_ns=units.msec(5.0),
            n_bursts=4,
            scheme=scheme,
        )
        result = run_incast_sim(config)
        finite = result.aligned_queue_packets[
            np.isfinite(result.aligned_queue_packets)]
        rows.append([label, round(result.mean_bct_ms, 2),
                     round(float(finite.max()), 0),
                     round(float(finite.mean()), 0),
                     result.steady_drops])
    print()
    print(format_table(
        ["sender", "BCT (ms)", "peak queue", "mean queue", "drops"],
        rows, title=f"Incast of {n_flows} flows, with and without the "
                    f"predicted guardrail"))


if __name__ == "__main__":
    main()
