"""Discrete-event simulation kernel.

This package is the substrate on which the packet-level network model
(:mod:`repro.netsim`) and the TCP stack (:mod:`repro.tcp`) run. It provides:

- :class:`~repro.simcore.event.Event` / :class:`~repro.simcore.event.EventQueue`
  — a binary-heap event queue with deterministic FIFO tie-breaking.
- :class:`~repro.simcore.kernel.Simulator` — the event loop, with integer
  nanosecond virtual time, one-shot scheduling, cancellation, and rearmable
  :class:`~repro.simcore.kernel.Timer` objects (used for TCP RTOs).
- :class:`~repro.simcore.random.RngHub` — named, seeded random substreams so
  each stochastic component draws from its own reproducible stream.
- :class:`~repro.simcore.hooks.HookRegistry` — named observer channels;
  every :class:`Simulator` carries one as ``sim.hooks`` for the telemetry
  layer and other observers.
- :mod:`repro.simcore.trace` — lightweight time-series probes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "event": ("Event", "EventQueue"),
    "hooks": ("HookRegistry",),
    "kernel": ("Simulator", "StopReason", "Timer"),
    "random": ("RngHub",),
    "trace": ("PeriodicProbe", "TimeSeries"),
})
