"""Inspect telemetry captured by ``--telemetry`` runs.

Reads a ``run_report.json`` written by
``python -m repro.experiments ... --telemetry --json-dir DIR`` and renders
the Millisampler-style series it contains::

    python -m repro.tools.telemetry_view results/run_report.json
    python -m repro.tools.telemetry_view results/run_report.json \\
        --unit fig5/panel:mode1_healthy --signal ingress_bytes
    python -m repro.tools.telemetry_view results/run_report.json \\
        --dump-json out.json
    python -m repro.tools.telemetry_view results/run_report.json \\
        --dump-csv out.csv

Default output is an ASCII timeline per unit: one sparkline per host
signal, a line plot of the bottleneck queue's per-interval peak, and the
flow lifecycle event tallies.
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path
from typing import Optional

from repro.analysis.ascii_plot import line_plot, sparkline
from repro.analysis.export import write_json

HOST_SIGNALS = ("ingress_bytes", "egress_bytes", "flow_count",
                "marked_bytes", "retransmit_bytes")


def load_telemetry(path: Path) -> dict[str, dict]:
    """The ``telemetry`` section of a run report (unit label -> capture)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    telemetry = document.get("telemetry")
    if not telemetry:
        raise SystemExit(
            f"{path}: no telemetry section — rerun the experiment with "
            f"--telemetry --json-dir")
    return telemetry


def render_unit(label: str, capture: dict) -> str:
    """ASCII timeline of one unit's capture."""
    interval_ms = capture["interval_ns"] / 1e6
    n = capture["n_intervals"]
    lines = [f"== {label} ==",
             f"interval {interval_ms:g} ms x {n} intervals"]
    for host, series in capture.get("hosts", {}).items():
        lines.append(f"-- host {host} (addr {series['address']}) --")
        for signal in HOST_SIGNALS:
            values = series.get(signal, [])
            total = series.get(f"total_{signal}", sum(values))
            spark = sparkline(values) or "(empty)"
            lines.append(f"  {signal:17s} total={total:<12d} {spark}")
    for queue, series in capture.get("queues", {}).items():
        peaks = series.get("peak_packets", [])
        cap = series.get("capacity_packets")
        times_ms = [i * interval_ms for i in range(len(peaks))]
        lines.append(line_plot(
            times_ms, [float(v) for v in peaks],
            title=f"-- queue {queue}: per-interval peak occupancy --",
            x_label="t (ms)", y_label="peak (packets)",
            y_max=float(cap) if cap else None))
    counts = capture.get("event_counts", {})
    if counts:
        tally = ", ".join(f"{kind}={counts[kind]}"
                          for kind in sorted(counts))
        lines.append(f"flow events: {tally} "
                     f"(total {capture.get('n_events', 0)}, "
                     f"dropped {capture.get('events_dropped', 0)})")
    return "\n".join(lines)


def dump_csv(telemetry: dict[str, dict], path: Path) -> int:
    """Write every host series as long-form CSV rows
    ``unit,host,signal,interval,value``; returns the row count."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit", "host", "signal", "interval", "value"])
        for label, capture in telemetry.items():
            for host, series in capture.get("hosts", {}).items():
                for signal in HOST_SIGNALS:
                    for idx, value in enumerate(series.get(signal, [])):
                        writer.writerow([label, host, signal, idx, value])
                        rows += 1
            for queue, series in capture.get("queues", {}).items():
                for idx, value in enumerate(series.get("peak_packets", [])):
                    writer.writerow([label, queue, "peak_packets", idx,
                                     value])
                    rows += 1
    return rows


def build_parser() -> argparse.ArgumentParser:
    """CLI argument parser (exposed for the docs generator and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-telemetry-view",
        description="Render Millisampler-style telemetry from a "
                    "run_report.json produced with --telemetry")
    parser.add_argument("report", type=str,
                        help="path to run_report.json")
    parser.add_argument("--unit", type=str, default=None,
                        help="only this unit (e.g. "
                             "fig5/panel:mode1_healthy)")
    parser.add_argument("--signal", type=str, default=None,
                        choices=HOST_SIGNALS,
                        help="plot one host signal as a full line plot "
                             "instead of the sparkline summary")
    parser.add_argument("--dump-json", type=str, default=None,
                        help="write the selected telemetry as JSON")
    parser.add_argument("--dump-csv", type=str, default=None,
                        help="write host/queue series as long-form CSV")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry = load_telemetry(Path(args.report))
    if args.unit is not None:
        if args.unit not in telemetry:
            available = ", ".join(sorted(telemetry))
            raise SystemExit(f"unit {args.unit!r} not in report; "
                             f"available: {available}")
        telemetry = {args.unit: telemetry[args.unit]}

    if args.dump_json is not None:
        write_json(telemetry, Path(args.dump_json))
        print(f"[wrote {args.dump_json}]")
    if args.dump_csv is not None:
        rows = dump_csv(telemetry, Path(args.dump_csv))
        print(f"[wrote {args.dump_csv}: {rows} rows]")
    if args.dump_json is not None or args.dump_csv is not None:
        return 0

    blocks = []
    for label, capture in telemetry.items():
        if args.signal is not None:
            interval_ms = capture["interval_ns"] / 1e6
            for host, series in capture.get("hosts", {}).items():
                values = [float(v) for v in series.get(args.signal, [])]
                times_ms = [i * interval_ms for i in range(len(values))]
                blocks.append(line_plot(
                    times_ms, values,
                    title=f"{label} / {host}: {args.signal}",
                    x_label="t (ms)", y_label=args.signal))
        else:
            blocks.append(render_unit(label, capture))
    print("\n\n".join(blocks))
    return 0


if __name__ == "__main__":
    from repro._cli import exit_after
    exit_after(main)
