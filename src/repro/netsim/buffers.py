"""Switch buffer-sharing models.

The paper's Section 4 simulations give each egress queue its own private
capacity (1333 packets / 2 MB), but Section 3 and Section 4.1.1 stress that
production switches *share* buffer memory between ports: when other ports are
also absorbing bursts, the capacity effectively available to one queue is far
below its configured limit, so losses occur at lower flow counts than the
private-buffer model predicts.

Two pool implementations capture both worlds:

- :class:`StaticBufferPool` — each queue may always use up to its own
  configured limit (the NS3-style private buffer; the paper's default).
- :class:`SharedBufferPool` — a fixed total is shared by all queues, with the
  classic dynamic-threshold (DT) admission rule: a packet is admitted only if
  the queue's occupancy stays below ``alpha * remaining_free_memory``.

Queues reserve bytes on enqueue and release them on dequeue or drop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class BufferPool(ABC):
    """Admission controller for bytes entering switch queues."""

    @abstractmethod
    def try_reserve(self, queue_id: int, current_bytes: int,
                    size_bytes: int) -> bool:
        """Ask to admit ``size_bytes`` into queue ``queue_id`` whose current
        occupancy is ``current_bytes``. Returns ``True`` and reserves the
        bytes on success."""

    @abstractmethod
    def release(self, queue_id: int, size_bytes: int) -> None:
        """Return ``size_bytes`` previously reserved by ``queue_id``."""


class StaticBufferPool(BufferPool):
    """Private per-queue buffering: admission is limited only by each
    queue's own capacity, which the queue itself enforces. The pool tracks
    total usage for observability."""

    def __init__(self) -> None:
        self.used_bytes = 0

    def try_reserve(self, queue_id: int, current_bytes: int,
                    size_bytes: int) -> bool:
        """Always admits: only the queue's own capacity limits it."""
        self.used_bytes += size_bytes
        return True

    def release(self, queue_id: int, size_bytes: int) -> None:
        """Return ``size_bytes`` to the usage total."""
        self.used_bytes -= size_bytes
        if self.used_bytes < 0:
            raise RuntimeError("buffer pool released more than reserved")


class SharedBufferPool(BufferPool):
    """Dynamic-threshold shared buffer (Choudhury & Hahne).

    A queue may grow only while its occupancy is below
    ``alpha * (total_bytes - used_bytes)``. With several active queues the
    per-queue ceiling shrinks, reproducing the production effect the paper
    describes: simultaneous bursts on other ports consume shared memory and
    cause drops well below the configured per-queue limit.

    Attributes:
        total_bytes: Shared memory size.
        alpha: Dynamic-threshold aggressiveness factor.
    """

    def __init__(self, total_bytes: int, alpha: float = 1.0):
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.total_bytes = total_bytes
        self.alpha = alpha
        self.used_bytes = 0
        self.rejections = 0

    @property
    def free_bytes(self) -> int:
        """Unreserved shared memory."""
        return self.total_bytes - self.used_bytes

    def threshold_bytes(self) -> float:
        """Current per-queue occupancy ceiling under the DT rule."""
        return self.alpha * self.free_bytes

    def try_reserve(self, queue_id: int, current_bytes: int,
                    size_bytes: int) -> bool:
        """Admit ``size_bytes`` if the shared memory has room for them and
        the queue would stay under the dynamic threshold; a refusal is
        counted in ``rejections``."""
        if self.used_bytes + size_bytes > self.total_bytes:
            self.rejections += 1
            return False
        if current_bytes + size_bytes > self.threshold_bytes():
            self.rejections += 1
            return False
        self.used_bytes += size_bytes
        return True

    def release(self, queue_id: int, size_bytes: int) -> None:
        """Return ``size_bytes`` to the shared memory."""
        self.used_bytes -= size_bytes
        if self.used_bytes < 0:
            raise RuntimeError("buffer pool released more than reserved")

    def occupy(self, size_bytes: int) -> None:
        """Statically consume shared memory, modelling contention from ports
        outside the simulated topology (rack-level contention in Section 3).
        """
        if size_bytes < 0 or self.used_bytes + size_bytes > self.total_bytes:
            raise ValueError("invalid external occupancy")
        self.used_bytes += size_bytes
