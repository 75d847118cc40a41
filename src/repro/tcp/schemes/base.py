"""The mitigation-scheme plugin interface.

A *scheme* packages one incast mitigation — its knobs, its wiring into a
live simulation, and its exported statistics — behind a uniform contract
so experiment environments can treat "which mitigation runs" as a single
config axis (``scheme="pulser"``) the same way they treat ``cca`` or
``backend``. ``docs/MITIGATIONS.md`` is the prose form of this contract;
the classes here are what the registry enforces.

The lifecycle an environment drives:

1. :meth:`MitigationScheme.validate_params` — at config-construction
   time, so a bad knob fails before any simulation work.
2. :meth:`MitigationScheme.install` — after the topology is built and
   **before any traffic**, returning a :class:`SchemeRuntime`. Installing
   before traffic matters: schemes that watch queues must attach their
   watchers while the switch fast paths can still fall back to the
   byte-identical legacy pump.
3. :meth:`SchemeRuntime.wrap_cca` — around every connection's CCA at
   creation (decorator pattern, like the guardrail).
4. :meth:`SchemeRuntime.on_connection` — with each connection's endpoint
   pair once both exist.
5. :meth:`SchemeRuntime.stop` — when the workload completes.
6. :meth:`SchemeRuntime.finish` — after the run, returning the scheme's
   JSON-able stats for result export.

Every hook except ``install`` has a no-op default, so a minimal scheme
only implements what it actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    # Annotations only: the contract names the packet stack's types, it
    # runs none of their code, and the registry loads this module to
    # validate a scheme name on runs that never build a connection.
    from repro.netsim.host import Host
    from repro.netsim.queues import DropTailQueue
    from repro.simcore.kernel import Simulator
    from repro.tcp.cca.base import CongestionControl
    from repro.tcp.config import TcpConfig
    from repro.tcp.connection import TcpReceiver, TcpSender


@dataclass
class SchemeContext:
    """Everything a scheme may wire into, handed to ``install``.

    Attributes:
        sim: The live simulator (for hooks, timers, probes).
        tcp: The TCP configuration connections will use.
        n_flows: Planned number of participating flows.
        ecn_threshold_packets: Bottleneck marking threshold (0 = no ECN).
        queue_capacity_packets: Bottleneck queue capacity.
        bdp_bytes: Bandwidth-delay product of the bottleneck path.
        bottleneck_queue: The congested egress queue (watchable only
            before traffic starts).
        receiver_host: The incast destination host — the vantage point on
            the ACK return path where switch-side signals can be stamped.
    """

    sim: Simulator
    tcp: TcpConfig
    n_flows: int
    ecn_threshold_packets: int
    queue_capacity_packets: int
    bdp_bytes: int
    bottleneck_queue: DropTailQueue
    receiver_host: Host


class SchemeRuntime:
    """A scheme's live wiring for one simulation run.

    Subclasses override the hooks they need; the defaults are no-ops so
    the baseline scheme is literally this class.
    """

    def wrap_cca(self, cca: CongestionControl) -> CongestionControl:
        """Decorate one connection's CCA (called once per connection,
        before the connection is constructed)."""
        return cca

    def on_connection(self, sender: TcpSender,
                      receiver: TcpReceiver) -> None:
        """Wire one established connection's endpoint pair."""

    def stop(self) -> None:
        """Stop periodic activity (registered as a workload done
        callback so the simulation drains promptly)."""

    def finish(self, burst_starts_ns: Optional[list[int]] = None,
               burst_duration_ns: Optional[int] = None) -> dict:
        """JSON-able scheme statistics for result export.

        Args:
            burst_starts_ns: Ground-truth burst start times, when the
                driving workload knows them (the dumbbell incast does;
                scenario flows do not).
            burst_duration_ns: Ground-truth burst length, likewise.
        """
        return {}


class MitigationScheme:
    """One registered mitigation: metadata, knobs, and an installer.

    Class attributes (the registry's contract, mirrored by
    ``docs/MITIGATIONS.md``):

    - ``name``: registry key, the value of the ``scheme`` config axis;
    - ``provenance``: the paper or system the mechanism comes from;
    - ``target_mode``: which operating-mode boundary it aims to move;
    - ``summary``: one-line mechanism description;
    - ``default_params``: every knob with its default — the *complete*
      set of keys ``validate_params`` accepts.
    """

    name: str = ""
    provenance: str = ""
    target_mode: str = ""
    summary: str = ""
    default_params: dict = {}

    def validate_params(self, params: dict) -> dict:
        """Merge ``params`` over the defaults, rejecting unknown keys.

        Returns the merged dict; raises ``ValueError`` for a knob the
        scheme does not declare or a value :meth:`check_params` rejects.
        """
        unknown = sorted(set(params) - set(self.default_params))
        if unknown:
            raise ValueError(
                f"scheme {self.name!r} does not accept {unknown}; "
                f"knobs: {sorted(self.default_params)}")
        merged = {**self.default_params, **params}
        self.check_params(merged)
        return merged

    def check_params(self, merged: dict) -> None:
        """Validate merged knob values (override to add constraints)."""

    def install(self, ctx: SchemeContext, params: dict) -> SchemeRuntime:
        """Instantiate the scheme's runtime wiring for one simulation."""
        raise NotImplementedError


class BaselineScheme(MitigationScheme):
    """The default scheme: plain DCTCP, no extra mechanism.

    Exists so ``scheme="dctcp"`` is a valid registry lookup; environments
    skip installation entirely for the default, keeping the pre-zoo
    packet-for-packet behaviour (and golden fixtures) untouched.
    """

    name = "dctcp"
    provenance = "Alizadeh et al., SIGCOMM 2010 (the paper's baseline)"
    target_mode = "none (baseline)"
    summary = "DCTCP alone, exactly as the Section 4 experiments run it"
    default_params: dict = {}

    def install(self, ctx: SchemeContext, params: dict) -> SchemeRuntime:
        """A no-op runtime (the baseline adds no wiring)."""
        self.validate_params(params)
        return SchemeRuntime()
