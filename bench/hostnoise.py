"""The reference loop: how fast is this machine, right now?

A fixed pure-Python heap/dict loop that imports nothing from ``repro``.
The reference host is a shared 2-vCPU microVM whose speed for the *same*
work drifts by 15-40 % for tens of seconds at a time, so a bare time says
as much about the minute it was taken in as about the program. Every
timed sample (a pass, a set-up) is therefore taken between two groups of
reference-loop samples and *rated* against the fastest of them: the
sample's duration divided by that reference time, times
:data:`NOMINAL_S` — the seconds the sample would have taken with the host
at its calm speed. A metric is the median rating of a run's samples.

The loop lives here, outside the program, and a change that claims a gain
may not edit ``bench/``, so the yardstick cannot move with the code it
measures.
"""

from __future__ import annotations

import heapq
import os
import platform
import statistics
import time

SPIN_ITEMS = 20_000
#: Reference-loop samples in one group; a group sits on each side of
#: every timed sample.
GROUP = 3
#: What one pass of the loop takes on the reference host when it is calm
#: (the floor of ten minutes of samples, 2026-09). Rated times are in
#: seconds of *that* host speed.
NOMINAL_S = 0.0175
#: A run whose first-half and second-half reference medians differ by
#: more than this is tagged ``"noisy": true``.
NOISY_SHIFT = 0.30


def spin_once_s() -> float:
    """One pass of the fixed loop; returns its wall time in seconds."""
    heap: list = []
    seen: dict = {}
    t0 = time.perf_counter()
    for i in range(SPIN_ITEMS):
        key = (i * 7919) % 10_007
        heapq.heappush(heap, (key, i))
        seen[key] = seen.get(key, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def group() -> list[float]:
    """:data:`GROUP` consecutive reference samples, in seconds."""
    return [spin_once_s() for _ in range(GROUP)]


def rate(duration_s: float, before: list[float], after: list[float]
         ) -> float:
    """``duration_s`` in seconds of nominal host speed, judged by the
    fastest reference sample on either side of it."""
    return duration_s / min(before + after) * NOMINAL_S


def rated_median(durations: list[float], groups: list[list[float]]
                 ) -> float:
    """Median rating of ``durations``, where ``groups[i]`` was sampled
    just before ``durations[i]`` and ``groups[i + 1]`` just after."""
    return statistics.median(
        rate(duration, groups[i], groups[i + 1])
        for i, duration in enumerate(durations))


def record(groups: list[list[float]]) -> dict:
    """The host-noise record of one run (at least two groups): best and
    median of the reference samples in its first and second half, in ms,
    and whether the host's speed shifted between the two."""
    half = len(groups) // 2
    halves = {}
    for name, part in (("before", groups[:half]), ("after", groups[half:])):
        flat = [sample for group_ in part for sample in group_]
        halves[name] = {"best": min(flat) * 1e3,
                        "median": statistics.median(flat) * 1e3}
    low, high = sorted(h["median"] for h in halves.values())
    return {**halves, "noisy": high > low * (1.0 + NOISY_SHIFT)}


def host_record() -> dict:
    """Static facts about the host, recorded once per suite."""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"nproc": os.cpu_count(), "loadavg": load,
            "python": platform.python_version(),
            "platform": platform.platform()}
