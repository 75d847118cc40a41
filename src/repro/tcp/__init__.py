"""TCP transport with pluggable congestion control.

Implements the endpoint behaviour the paper's Section 4 diagnosis depends
on: a window-based sender (slow start, congestion avoidance, triple-dupACK
fast retransmit with NewReno partial-ACK handling, RTO with exponential
backoff and a 1-MSS minimum window) and a receiver that reflects ECN CE
marks back via the TCP ECE bit (the DCTCP receiver rule).

Congestion-control algorithms live in :mod:`repro.tcp.cca`:
:class:`~repro.tcp.cca.reno.Reno` (classic ECN TCP baseline),
:class:`~repro.tcp.cca.dctcp.Dctcp` (the paper's subject), and
:class:`~repro.tcp.cca.swiftlike.SwiftLike` (delay-based with sub-MSS pacing,
the Section 5.2 alternative). :mod:`repro.tcp.guardrail` adds the Section 5.1
"guardrail" CWND cap driven by predicted incast degree.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("TcpConfig",),
    "connection": ("TcpSender", "TcpReceiver", "open_connection"),
    "rtt": ("RttEstimator",),
    "cca.base": ("CongestionControl",),
    "cca.reno": ("Reno",),
    "cca.dctcp": ("Dctcp",),
    "cca.swiftlike": ("SwiftLike",),
    "guardrail": ("CwndGuardrail", "guardrail_cap_bytes"),
    "ictcp": ("ReceiverWindowThrottle",),
    "sack": ("SackScoreboard",),
})
