"""Congestion-control algorithms.

All CCAs implement :class:`repro.tcp.cca.base.CongestionControl`. The sender
owns reliability (retransmits, timers); the CCA owns only the congestion
window and its reaction to ACKs, ECN echoes, losses, and timeouts.
"""

from repro._lazy import lazy_exports

CCA_NAMES = ("dctcp", "reno", "swiftlike")
"""The values a config's ``cca`` field may name, kept apart from the
classes so a fluid run can validate the axis without loading them."""

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("CongestionControl",),
    "reno": ("Reno",),
    "dctcp": ("Dctcp",),
    "swiftlike": ("SwiftLike",),
})
