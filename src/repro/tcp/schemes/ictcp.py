"""Registry wiring for ICTCP-style receiver-window throttling.

The mechanism lives in :mod:`repro.tcp.ictcp`; this module packages it as
a pluggable scheme (the one ablation M and the verdict campaign run): one
:class:`~repro.tcp.ictcp.ReceiverWindowThrottle` at the incast
destination, budgeted to the healthy Mode-1 region
(:func:`~repro.tcp.guardrail.mode1_budget_bytes`, the same budget the
``guardrail`` scheme divides).

Admission: the throttle starts from a zero-delay event scheduled at
install, so every connection registered before traffic opens at an even
share of the budget; a connection that opens later gets at most
``budget // registered receivers`` (floored at one MSS).
"""

from __future__ import annotations

from repro import units
from repro.tcp.connection import TcpReceiver, TcpSender
from repro.tcp.guardrail import mode1_budget_bytes
from repro.tcp.ictcp import ReceiverWindowThrottle
from repro.tcp.schemes.base import (MitigationScheme, SchemeContext,
                                    SchemeRuntime)


class _IctcpRuntime(SchemeRuntime):
    """Live wiring: one throttle at the destination, started at time
    zero over the connections opened before traffic."""

    def __init__(self, ctx: SchemeContext, params: dict):
        budget = params["budget_bytes"]
        if budget is None:
            budget = mode1_budget_bytes(ctx.ecn_threshold_packets,
                                        ctx.bdp_bytes, ctx.tcp.mss_bytes)
        self.throttle = ReceiverWindowThrottle(
            ctx.sim, [], budget_bytes=max(budget, ctx.tcp.mss_bytes),
            period_ns=params["period_ns"],
            mss_bytes=ctx.tcp.mss_bytes)
        ctx.sim.schedule(0, self.throttle.start)

    def on_connection(self, sender: TcpSender,
                      receiver: TcpReceiver) -> None:
        """Put the new connection under the shared budget."""
        self.throttle.add_connection(receiver)

    def stop(self) -> None:
        """Lift the advertised-window limits."""
        self.throttle.stop()

    def finish(self, burst_starts_ns=None, burst_duration_ns=None) -> dict:
        """Budget/update counters for result export."""
        return {
            "budget_bytes": self.throttle.budget_bytes,
            "updates": self.throttle.updates,
            "last_active_count": self.throttle.last_active_count,
            "last_share_bytes": self.throttle.current_share_bytes(),
        }


class IctcpScheme(MitigationScheme):
    """Receiver-window throttling (ICTCP, Wu et al.)."""

    name = "ictcp"
    provenance = "ICTCP (Wu et al., CoNEXT 2010)"
    target_mode = ("Mode 2 (degenerate): hold aggregate in-flight inside "
                   "the healthy budget — 1-MSS floor binds at K*")
    summary = ("receiver divides a Mode-1 byte budget across active "
               "connections via the advertised window")
    default_params = {
        "budget_bytes": None,  # None = ECN threshold + BDP
        "period_ns": units.usec(100.0),
    }

    def check_params(self, merged: dict) -> None:
        """Reject out-of-range knob values."""
        budget = merged["budget_bytes"]
        if budget is not None and budget <= 0:
            raise ValueError("budget_bytes must be positive")
        if merged["period_ns"] <= 0:
            raise ValueError("period_ns must be positive")

    def install(self, ctx: SchemeContext, params: dict) -> SchemeRuntime:
        """Start the destination-side throttle."""
        return _IctcpRuntime(ctx, self.validate_params(params))
