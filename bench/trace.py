"""The traced run's instruments, all on the benchmark's side of the line.

- :func:`profile_layers` — one cProfile pass bucketed by
  ``src/repro/<layer>/`` path, library time charged to the calling layer
  (group A).
- :class:`EventCounters` — a wrapper on ``Simulator.count_batched`` plus
  the kernel's process-wide tally, giving true heap pops beside credited
  events (group B).
- :class:`Spans` — named spans recorded around public functions, with
  parent links, so a layer's self time is its span minus its children
  (group C).

Timed runs use none of this; the traced run reports what it costs as
``trace.overhead_ratio``.
"""

from __future__ import annotations

import cProfile
import contextlib
import os
import pstats
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

from bench.manifest import LAYERS, SRC

_PACKAGE = str(SRC / "repro") + os.sep


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside the
    program's layer directories)."""
    if not filename.startswith(_PACKAGE):
        return "other"
    parts = filename[len(_PACKAGE):].split(os.sep)
    if parts[:2] == ["experiments", "engine"]:
        return "engine"
    return parts[0] if parts[0] in LAYERS else "other"


def bucket_profile(stats: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Bucket raw ``pstats`` entries into per-layer self time and calls.

    The program's own functions bucket by file path. Everything else — C
    builtins, which have no path, and the numpy / stdlib Python they are
    wrapped in — is charged to whichever layer called it, split by the
    per-caller self times cProfile keeps and followed up the call graph
    until program code is reached. That is what makes ``heappush``
    simcore time, ``np.percentile`` analysis time and the JSON encoder
    export time; ``other`` keeps only what no layer asked for (harness,
    imports). ``calls`` counts the layer's own Python functions only.
    """
    memo: dict[tuple, dict[str, float]] = {}
    active: set[tuple] = set()

    def shares(key: tuple) -> dict[str, float]:
        layer = "other" if key[0] == "~" else layer_of(key[0])
        if layer != "other":
            return {layer: 1.0}
        if key in memo:
            return memo[key]
        if key in active:  # recursion (the JSON encoder): other callers decide
            return {}
        active.add(key)
        out: dict[str, float] = defaultdict(float)
        for caller, (_nc, _cc, tt, _ct) in stats[key][4].items():
            if caller in stats:
                for name, frac in shares(caller).items():
                    out[name] += frac * tt
        active.discard(key)
        total = sum(out.values())
        memo[key] = ({name: value / total for name, value in out.items()}
                     if total > 0 else {"other": 1.0})
        return memo[key]

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for key, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, frac in shares(key).items():
            self_s[layer] += frac * tt
        if key[0] != "~":
            calls[layer_of(key[0])] += nc
    return self_s, calls


def profile_layers(fn: Callable[[], Any]
                   ) -> tuple[Any, float, dict[str, float], dict[str, int]]:
    """Run ``fn`` under cProfile; returns ``(result, wall_s, self_s,
    calls)`` with the last two keyed by layer."""
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    self_s, calls = bucket_profile(pstats.Stats(profiler).stats)
    return result, wall, self_s, calls


class EventCounters:
    """Counts events credited by batched fast paths, so real heap pops
    (total minus credited) are visible beside the blended tally."""

    def __init__(self) -> None:
        self.credited = 0
        self.total = 0

    @contextlib.contextmanager
    def counting(self) -> Iterator["EventCounters"]:
        from repro.simcore import kernel
        original = kernel.Simulator.count_batched
        counters = self

        def count_batched(sim, n: int) -> None:
            counters.credited += n
            original(sim, n)

        before = kernel.total_events_processed()
        kernel.Simulator.count_batched = count_batched
        try:
            yield self
        finally:
            kernel.Simulator.count_batched = original
            self.total += kernel.total_events_processed() - before

    def as_counts(self) -> dict:
        return {"simcore.events_total": self.total,
                "simcore.events_credited": self.credited,
                "simcore.heap_pops": self.total - self.credited}


class Spans:
    """In-memory span recorder: ``(name, start, end, parent)`` per call
    of each wrapped function, written out only when asked."""

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float, int | None]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        records, stack = self.records, self._stack

        def span(*args, **kwargs):
            index = len(records)
            records.append((name, 0.0, 0.0, None))
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                records[index] = (name, start, end, parent)
        return span

    @contextlib.contextmanager
    def around(self, targets: dict[str, tuple[Any, str]]) -> Iterator[None]:
        """Record spans around ``{span_name: (owner, attribute)}``.

        A class attribute is wrapped in place. A module-level function is
        wrapped in every loaded ``repro`` module that imported it by
        name, because ``from x import f`` binds ``f`` at the call site.
        """
        undo: list[tuple[Any, str, Any]] = []
        try:
            for name, (owner, attr) in targets.items():
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original)
                holders = [owner]
                if not isinstance(owner, type):
                    holders += [m for mname, m in list(sys.modules.items())
                                if mname.startswith("repro") and m is not
                                owner and getattr(m, attr, None) is original]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def count(self, name: str) -> int:
        return sum(1 for r in self.records if r[0] == name)

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.records
                   if n == name)

    def self_s(self, name: str) -> float:
        """Summed duration minus the part direct child spans cover."""
        child_s: dict[int, float] = defaultdict(float)
        for _n, start, end, parent in self.records:
            if parent is not None:
                child_s[parent] += end - start
        return sum(end - start - child_s[i]
                   for i, (n, start, end, _) in enumerate(self.records)
                   if n == name)
