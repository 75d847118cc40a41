"""Registry wiring for the Section 5.1 CWND guardrail.

The mechanism lives in :mod:`repro.tcp.guardrail`; this module packages
it as a pluggable scheme (the one ablation B runs): every sender's CCA is
wrapped in a :class:`~repro.tcp.guardrail.CwndGuardrail` whose cap is the
run's planned flow count's fair share of the healthy Mode-1 budget
(:func:`~repro.tcp.guardrail.guardrail_cap_bytes`) — the paper's proposal
with the incast degree known exactly.
"""

from __future__ import annotations

from repro.tcp.cca.base import CongestionControl
from repro.tcp.guardrail import CwndGuardrail, guardrail_cap_bytes
from repro.tcp.schemes.base import (MitigationScheme, SchemeContext,
                                    SchemeRuntime)


class _GuardrailRuntime(SchemeRuntime):
    """Live wiring: one fixed cap around every connection's CCA."""

    def __init__(self, ctx: SchemeContext):
        self.cap_bytes = guardrail_cap_bytes(
            ctx.n_flows, ctx.ecn_threshold_packets, ctx.bdp_bytes,
            ctx.tcp.mss_bytes)

    def wrap_cca(self, cca: CongestionControl) -> CongestionControl:
        """Clamp the connection's effective window to the cap."""
        return CwndGuardrail(cca, self.cap_bytes)

    def finish(self, burst_starts_ns=None, burst_duration_ns=None) -> dict:
        """The cap the run enforced."""
        return {"cap_bytes": self.cap_bytes}


class GuardrailScheme(MitigationScheme):
    """Per-flow CWND cap sized from the incast degree (Section 5.1)."""

    name = "guardrail"
    provenance = ("the paper's Section 5.1 proposal: CWND guardrails sized "
                  "from a predicted incast degree")
    target_mode = ("Mode 1 burst-start spike: hold aggregate in-flight "
                   "inside the healthy budget — 1-MSS floor binds at K*")
    summary = ("every sender's effective window is clamped to its share "
               "of the Mode-1 byte budget")

    def install(self, ctx: SchemeContext, params: dict) -> SchemeRuntime:
        """Size the cap for the planned incast."""
        self.validate_params(params)
        return _GuardrailRuntime(ctx)
