"""Render a synthetic Millisampler capture as terminal panels.

The Figure 1 experience at the command line: generate one host capture for
any of the five services and print the four panels (ingress rate, active
flows, ECN-marked rate, retransmitted rate) as sparklines plus a burst
table.

Usage::

    python -m repro.tools.trace_view --service aggregator --seed 7
    python -m repro.tools.trace_view --service video --duration-ms 500
"""

from __future__ import annotations

import argparse

from repro.analysis.ascii_plot import sparkline
from repro.analysis.tables import format_table
from repro.core.bursts import burst_frequency_hz, detect_bursts
from repro.core.incast import is_incast
from repro.measurement.records import HostTrace, TraceMeta
from repro.netsim.fluid import FluidConfig
from repro.simcore.random import RngHub
from repro.workloads.services import SERVICE_PROFILES, generate_host_trace


def render_trace(trace: HostTrace, width: int = 72) -> str:
    """The four Figure 1 panels as labelled sparklines plus a burst table."""
    bursts = detect_bursts(trace)
    lines = [
        f"{trace.meta.service} host{trace.meta.host_id}: "
        f"{trace.n_intervals} ms @ {trace.line_rate_bps / 1e9:g} Gbps, "
        f"utilization {trace.mean_utilization():.1%}, "
        f"{burst_frequency_hz(trace, bursts):.0f} bursts/s",
        "",
        "(a) ingress Gbps      " + sparkline(trace.ingress_rate_gbps(),
                                             width),
        "(b) active flows      " + sparkline(trace.active_flows, width),
        "(c) ECN-marked Gbps   " + sparkline(trace.marked_rate_gbps(),
                                             width),
        "(d) retransmit Gbps   " + sparkline(trace.retransmit_rate_gbps(),
                                             width),
        "",
    ]
    rows = []
    for burst in bursts[:25]:
        rows.append([
            f"{burst.start}-{burst.end}",
            round(burst.duration_ms, 1),
            burst.max_active_flows,
            "yes" if is_incast(burst) else "no",
            f"{burst.marked_fraction:.0%}",
            f"{burst.retransmit_fraction_of_line_rate:.1%}",
            f"{burst.peak_queue_frac:.0%}",
        ])
    suffix = "" if len(bursts) <= 25 else f" (first 25 of {len(bursts)})"
    lines.append(format_table(
        ["span (ms)", "dur", "flows", "incast", "marked", "retx",
         "peak queue"],
        rows, title=f"Bursts{suffix}"))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.trace_view",
        description="Render a synthetic Millisampler capture (Figure 1 "
                    "style) in the terminal")
    parser.add_argument("--service", choices=sorted(SERVICE_PROFILES),
                        default="aggregator")
    parser.add_argument("--host", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration-ms", type=int, default=2000)
    parser.add_argument("--width", type=int, default=72)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    rng = RngHub(args.seed).fresh(f"{args.service}/host{args.host}")
    trace = generate_host_trace(
        SERVICE_PROFILES[args.service],
        TraceMeta(service=args.service, host_id=args.host), rng,
        duration_ms=args.duration_ms, fluid_config=FluidConfig())
    print(render_trace(trace, width=args.width))
    return 0


if __name__ == "__main__":
    from repro._cli import exit_after
    exit_after(main)
