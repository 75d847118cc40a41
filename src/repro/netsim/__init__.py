"""Packet-level network model.

Built on :mod:`repro.simcore`, this package models the paper's simulation
environment (Section 4): point-to-point links with serialization and
propagation delay, output-queued switches whose egress queues tail-drop and
ECN-mark at a configurable threshold, shared switch buffers, host NICs, and a
dumbbell topology builder matching the paper's setup (N senders -> ToR ->
ToR -> one receiver).

It also contains :mod:`repro.netsim.fluid`, the millisecond-granularity fluid
ToR queue used by the Section 3 production-fleet model, which shares the same
queueing physics (queue ~= aggregate window - BDP, all-or-nothing ECN
marking, overflow drops) at a coarser timescale.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fluid": ("FluidConfig", "degenerate_point_flows"),
    "packet": ("ECN", "Packet"),
    "link": ("Link",),
    "queues": ("DropTailQueue", "QueueStats"),
    "buffers": ("SharedBufferPool",),
    "switch": ("EgressPort", "Switch"),
    "nic": ("HostNIC",),
    "host": ("Host",),
    "topology": (
        "Dumbbell", "DumbbellConfig", "Rack", "RackConfig", "build_dumbbell",
        "build_rack"),
    "leafspine": ("LeafSpine", "LeafSpineConfig", "build_leaf_spine"),
})
