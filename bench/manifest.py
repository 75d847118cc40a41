"""Metric and workload names, and the ``BENCHMARK.json`` they must match.

``BENCHMARK.json`` is the contract file (bounds, directions, reasons);
this module holds what the code needs to know beyond it — which layer
metrics are exact counts (group B), and how each is produced — and
refuses to run when the two disagree on a name or a unit.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFEST_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("incast_steady", "incast_lossy", "incast_telemetry",
             "fleet_study", "sweep_cold", "sweep_warm")

#: Timed passes per run, pinned per workload; only ``--quick`` changes
#: them. Sized on the reference host so that the passes, with a
#: reference group after each, take about two thirds of ``run_seconds``
#: when the host is calm and still fit when it is 40 % slower.
#: ``--seconds`` is a ceiling: a run that reaches it first reports on the
#: passes it has and is marked ``"short": true``.
PASSES = {"incast_steady": 22, "incast_lossy": 11, "incast_telemetry": 14,
          "fleet_study": 7, "sweep_cold": 14, "sweep_warm": 20}

#: Set-up-only interpreters started before, and again after, the timed
#: worker of a run.
SETUPS_PER_SIDE = 2

#: End-to-end metrics, gated by the bounds in ``BENCHMARK.json``.
#: ``failed_share`` is the fifth: it is 0 on a healthy run, so it travels
#: as the contract's ``failed`` / ``attempted`` pair rather than as a
#: bounded metric (which must never be 0).
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

#: Layer = module name under ``src/repro/`` (``engine`` is
#: ``experiments/engine``); everything else profiles as ``other``.
LAYERS = ("simcore", "netsim", "tcp", "workloads", "telemetry",
          "measurement", "core", "analysis", "experiments", "engine",
          "other")

#: Group A — one cProfile pass per workload, bucketed by file path.
GROUP_A = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in
       ("simcore", "netsim", "tcp", "telemetry", "engine")},
    "trace.overhead_ratio": "ratio",
}

#: Group B — exact counts from result objects; must repeat bit for bit,
#: and a pure-speed change must leave every one identical.
GROUP_B = {
    "simcore.events_total": "count",
    "simcore.events_credited": "count",
    "simcore.heap_pops": "count",
    "netsim.drops": "count",
    "netsim.ecn_marks": "count",
    "netsim.peak_queue_pkts": "count",
    "tcp.segments": "count",
    "tcp.retransmits": "count",
    "tcp.rto_fired": "count",
    "tcp.fast_retransmits": "count",
    "tcp.slow_path_share": "ratio",
    "engine.units": "count",
    "engine.executed": "count",
    "engine.cache_hits": "count",
}

#: Group C — spans and probes around public functions (``bench/probes.py``),
#: plus the two derived from groups A and B and the host-noise spin.
GROUP_C = {
    "simcore.event_churn_ns": "ns",
    "simcore.timer_rearm_ns": "ns",
    "simcore.cancel_churn_ns": "ns",
    "netsim.pkt_path_ns": "ns",
    "netsim.fluid_run_us": "us",
    "netsim.fluid_runs": "count",
    "tcp.ns_per_segment": "ns",
    "telemetry.overhead_ratio": "ratio",
    "workloads.generate_trace_ms": "ms",
    "core.summarize_trace_ms": "ms",
    "core.detect_bursts_us": "us",
    "core.bursts_detected": "count",
    "measurement.campaign_self_ms": "ms",
    "analysis.cdf_us": "us",
    "experiments.sweep_compile_ms": "ms",
    "experiments.fluid_unit_us": "us",
    "analysis.fct_pool_ms": "ms",
    "analysis.export_ms": "ms",
    "engine.report_ms": "ms",
    "engine.cache_key_us": "us",
    "engine.seal_us": "us",
    "engine.cache_put_us": "us",
    "engine.unseal_us": "us",
    "engine.cache_get_us": "us",
    "engine.cache_miss_us": "us",
    "engine.tax_cold_us_per_unit": "us",
    "engine.tax_warm_us_per_unit": "us",
    "engine.journal_append_us": "us",
    "engine.journal_fsync_ms": "ms",
    "engine.frame_roundtrip_us": "us",
    "engine.pool_unit_ms": "ms",
    "engine.distributed_unit_ms": "ms",
    "engine.remote_put_ms": "ms",
    "engine.remote_get_ms": "ms",
    "host.spin_ms": "ms",
}

PER_LAYER = {**GROUP_A, **GROUP_B, **GROUP_C}

#: What a probe that could not run reports on the contract's result line,
#: where every value must be a number (the suite document says ``null``).
UNAVAILABLE = -1.0


class ManifestError(RuntimeError):
    """``BENCHMARK.json`` is missing, unreadable, or out of step."""


def load() -> dict:
    """Parse ``BENCHMARK.json`` and check it names exactly the workloads
    and metrics (with the units) this package produces."""
    try:
        doc = json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read {MANIFEST_PATH}: {exc}") from exc
    declared = [w["name"] for w in doc["workloads"]]
    if declared != list(WORKLOADS):
        raise ManifestError(f"BENCHMARK.json workloads {declared} != "
                            f"{list(WORKLOADS)}")
    for key, expected in (("end_to_end", END_TO_END),
                          ("per_layer", PER_LAYER)):
        units = {m["name"]: m["unit"] for m in doc[key]}
        if units != expected:
            odd = sorted(set(units.items()) ^ set(expected.items()))
            raise ManifestError(f"BENCHMARK.json {key} disagrees with "
                                f"bench/manifest.py on {odd}")
    return doc


def bounds(doc: dict) -> dict[str, float]:
    """End-to-end metric name -> regression bound (share of the base)."""
    return {m["name"]: float(m["bound"]) for m in doc["end_to_end"]}
