"""The pluggable mitigation-scheme registry.

``scheme`` is a config axis exactly like ``cca`` or ``backend``: a name
looked up here, validated at config-construction time, installed into the
live simulation by the experiment environments — the only way a run
changes its senders or receivers. The registry enforces the contract
``docs/MITIGATIONS.md`` documents — unique names, declared knobs, the
:class:`~repro.tcp.schemes.base.MitigationScheme` lifecycle.

Built-in zoo (each instantiated by its first :func:`get_scheme`):

- ``dctcp`` — the baseline, no extra mechanism (default; elided from
  cache keys and exports so pre-zoo artifacts stay byte-identical);
- ``guardrail`` — the paper's Section 5.1 proposal: each sender's CWND
  capped at its share of the Mode-1 budget (Ablation B);
- ``ictcp`` — receiver-window throttling (Wu et al., CoNEXT 2010;
  Ablation M);
- ``pulser`` — explicit incast notifications piggybacked on ACKs, with
  sender multiplicative backoff;
- ``fec`` — proactive redundancy so short-flow losses recover without
  RTO;
- ``detect`` — online switch-side burst detection on the
  ``queue.watermark`` channel (measurement-only).

Third-party schemes register through :func:`register_scheme`; see the
"writing a new scheme" guide in ``docs/MITIGATIONS.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.tcp.schemes.base import MitigationScheme

DEFAULT_SCHEME = "dctcp"
"""The scheme every config defaults to; never cache-key-visible."""

#: The built-in zoo, name → class exported below. Validating a config's
#: ``scheme`` axis needs the names; only a run that installs a scheme
#: needs its module (and the packet stack behind it).
_BUILTIN = {"dctcp": "BaselineScheme", "guardrail": "GuardrailScheme",
            "ictcp": "IctcpScheme", "pulser": "PulserScheme",
            "fec": "FecScheme", "detect": "DetectScheme"}

_REGISTRY: dict[str, MitigationScheme] = {}


def register_scheme(scheme: MitigationScheme, *,
                    replace: bool = False) -> MitigationScheme:
    """Register ``scheme`` under its ``name``.

    Raises ``ValueError`` on an empty name or (unless ``replace=True``) a
    name already taken — a silent shadow would make two experiments with
    the same config axis run different code.
    """
    if not scheme.name:
        raise ValueError(f"{type(scheme).__name__} declares no name")
    if scheme.name in scheme_names() and not replace:
        raise ValueError(f"scheme {scheme.name!r} is already registered "
                         f"(by {type(get_scheme(scheme.name)).__name__}); "
                         f"pass replace=True to override")
    _REGISTRY[scheme.name] = scheme
    return scheme


def get_scheme(name: str) -> MitigationScheme:
    """Look up a registered scheme; ``ValueError`` lists the choices."""
    if name not in _REGISTRY:
        if name not in _BUILTIN:
            raise ValueError(f"unknown scheme {name!r}; "
                             f"choose from {scheme_names()}")
        _REGISTRY[name] = __getattr__(_BUILTIN[name])()
    return _REGISTRY[name]


def scheme_names() -> list[str]:
    """Sorted names of every registered scheme."""
    return sorted({*_BUILTIN, *_REGISTRY})


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("MitigationScheme", "SchemeContext", "SchemeRuntime",
             "BaselineScheme"),
    "guardrail": ("GuardrailScheme",),
    "ictcp": ("IctcpScheme",),
    "pulser": ("PulserScheme",),
    "fec": ("FecScheme",),
    "detect": ("DetectScheme",),
})

__all__ += ["DEFAULT_SCHEME", "register_scheme", "get_scheme",
            "scheme_names"]
