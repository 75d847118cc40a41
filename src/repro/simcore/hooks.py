"""Lightweight named-channel callback registry.

Components that want to be observable emit events into their simulator's
:attr:`~repro.simcore.kernel.Simulator.hooks` registry; observers (the
telemetry layer, tests) subscribe to the channels they care about. The
registry is designed so that *unobserved* emission is near-free — a single
dict lookup — and zero-allocation, which lets protocol hot paths (ACK
processing, RTO handling) stay instrumented permanently without perturbing
uninstrumented runs.

Channel names are plain strings, dotted by convention (``"flow.rto"``).
The canonical channels emitted by the TCP layer are documented in
:mod:`repro.telemetry`.

Subscriber lists are copy-on-write tuples: (un)subscribing builds a new
tuple, so an emit iterates the one it looked up — a snapshot — without
copying it on every call. The channel map itself is never rebound, so a
per-packet path may hold it and test it for truth — whether *any*
channel has subscribers, the cheapest possible gate (the TCP sender
does).
"""

from __future__ import annotations

from typing import Any, Callable

Hook = Callable[..., Any]


class HookRegistry:
    """Named broadcast channels with subscribe/unsubscribe/emit."""

    __slots__ = ("_channels",)

    def __init__(self) -> None:
        self._channels: dict[str, tuple[Hook, ...]] = {}

    def subscribe(self, channel: str, fn: Hook) -> Hook:
        """Register ``fn`` to be called on every emit to ``channel``.

        Returns ``fn`` so callers can keep the handle for
        :meth:`unsubscribe`. The same callable may subscribe to several
        channels; subscribing it twice to one channel calls it twice.
        """
        self._channels[channel] = self._channels.get(channel, ()) + (fn,)
        return fn

    def unsubscribe(self, channel: str, fn: Hook) -> None:
        """Remove one subscription of ``fn`` from ``channel``.

        Raises KeyError for an unknown channel and ValueError if ``fn``
        is not subscribed — silent failure here would make a telemetry
        detach leak subscriptions without anyone noticing.
        """
        subs = self._channels.get(channel)
        if subs is None:
            raise KeyError(f"no subscribers on channel {channel!r}")
        i = subs.index(fn)  # ValueError if absent
        subs = subs[:i] + subs[i + 1:]
        if subs:
            self._channels[channel] = subs
        else:
            del self._channels[channel]

    def active(self, channel: str) -> bool:
        """Whether ``channel`` has at least one subscriber.

        Hot paths that must compute an event's arguments (not just forward
        existing state) guard on this before building them.
        """
        return channel in self._channels

    @property
    def n_subscriptions(self) -> int:
        """Total live subscriptions across all channels."""
        return sum(len(subs) for subs in self._channels.values())

    def emit(self, channel: str, *args: Any) -> None:
        """Call every subscriber of ``channel`` with ``*args``.

        No-op (one dict lookup) when nobody is listening. Subscribers run
        in subscription order, over the tuple current when the emit
        began, so a subscriber may unsubscribe itself mid-emit.
        """
        for fn in self._channels.get(channel, ()):
            fn(*args)

    def __repr__(self) -> str:
        return (f"HookRegistry({len(self._channels)} channels, "
                f"{self.n_subscriptions} subscriptions)")
