"""Seeded random-stream management.

Every stochastic component (start-time jitter, service burst arrivals, flow
count draws, ...) pulls a *named* substream from an :class:`RngHub`. Streams
are derived from the hub seed and the stream name, so:

- adding a new consumer never perturbs existing streams, and
- the same name always yields the same sequence for a given hub seed.

This is what makes experiments reproducible while still letting independent
parts of the model draw independently.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngHub:
    """Factory of named, deterministic :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The hub's root seed."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so a consumer that draws repeatedly advances its own stream only.
        """
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                self._derive_seed(name))
        return self._streams[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``, restarted from the derived
        seed (unlike :meth:`stream`, which memoizes)."""
        return np.random.default_rng(self._derive_seed(name))

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(
            f"{self._seed}/{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def __repr__(self) -> str:
        return f"RngHub(seed={self._seed}, streams={sorted(self._streams)})"
