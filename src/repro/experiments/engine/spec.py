"""Work-unit description shared by the engine and the experiment modules.

A :class:`WorkUnit` is a *description* of one independent slice of an
experiment — it carries no live objects, only JSON-able parameters, so it can
cross process boundaries cheaply and hash stably into a cache key. The
callable that executes it is named by dotted path (``module:function``) and
resolved inside whichever process runs the unit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import repro

#: The canonical JSON a cache key hashes: ``json.dumps(x, sort_keys=True,
#: separators=(",", ":"))`` without building an encoder per call.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class WorkUnit:
    """One independent, cacheable slice of an experiment.

    Attributes:
        experiment: Owning experiment name (``"fig5"``), used for report
            attribution. Units shared between experiments (e.g. the
            fig2/fig4 campaign) keep the name of whichever experiment
            listed them first.
        unit_id: Identifier unique within the experiment, e.g.
            ``"panel:mode2_degenerate"`` or ``"service:video"``.
        fn: Dotted path ``"package.module:function"`` of the executor; the
            function receives the unit and returns a picklable payload.
        params: JSON-able parameters fully describing the unit's work.
        scale: Workload scale factor the unit was derived at.
        seed: Root random seed.
        cost_hint: Relative expected runtime (1.0 = a typical unit). The
            parallel scheduler starts expensive units first so a long tail
            unit cannot serialize the end of a run; the hint never affects
            results or the cache key.
    """

    experiment: str
    unit_id: str
    fn: str
    params: dict = field(default_factory=dict)
    scale: float = 1.0
    seed: int = 0
    cost_hint: float = 1.0

    def __post_init__(self) -> None:
        if ":" not in self.fn:
            raise ValueError(
                f"fn must be a 'module:function' dotted path, got {self.fn!r}")
        # Fail fast on params a JSON cache key cannot represent.
        json.dumps(self.params)

    def identity(self) -> dict:
        """The fields that define this unit's payload, and nothing else.

        This is the exact structure :meth:`cache_key` hashes. Everything
        absent from it — the experiment name, ``cost_hint``, the engine's
        attempt counter, injected fault specs — is execution context and
        can never influence the key (the chaos and property suites pin
        this down).
        """
        return {
            "fn": self.fn,
            "params": self.params,
            "scale": self.scale,
            "seed": self.seed,
            "version": repro.__version__,
        }

    def cache_key(self) -> str:
        """Content-addressed identity of this unit's payload.

        Hashes :meth:`identity` — ``(fn, params, scale, seed,
        repro.__version__)``; the experiment name is deliberately
        excluded so experiments sharing a computation (same executor,
        same parameters) share cache entries. Keys are stable across
        processes and interpreter restarts (canonical JSON + SHA-256, no
        ``hash()`` randomization), and a version bump invalidates every
        prior entry.
        """
        token = _CANONICAL_JSON.encode(self.identity())
        return hashlib.sha256(token.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Human-readable ``experiment/unit_id`` tag for reports and logs."""
        return f"{self.experiment}/{self.unit_id}"

    def resolve_fn(self) -> Callable[["WorkUnit"], Any]:
        """Import and return the executor behind :attr:`fn`."""
        module_name, _, fn_name = self.fn.partition(":")
        module = importlib.import_module(module_name)
        try:
            return getattr(module, fn_name)
        except AttributeError as exc:
            raise AttributeError(
                f"work unit {self.label}: {module_name} has no "
                f"attribute {fn_name!r}") from exc
