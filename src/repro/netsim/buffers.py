"""Switch buffer sharing: the dynamic-threshold shared pool.

The paper's Section 4 simulations give each egress queue its own private
capacity (1333 packets / 2 MB); a queue built with no pool is that private
buffer, limited only by its own capacity. Section 3 and Section 4.1.1 stress
that production switches *share* buffer memory between ports: when other
ports are also absorbing bursts, the capacity effectively available to one
queue is far below its configured limit, so losses occur at lower flow counts
than the private-buffer model predicts.

:class:`SharedBufferPool` models that sharing: a fixed total is shared by the
queues that name the pool, with the classic dynamic-threshold (DT) admission
rule: a packet is admitted only if the queue's occupancy stays below
``alpha * remaining_free_memory``.

Queues reserve bytes on enqueue and release them on dequeue or drop.
"""

from __future__ import annotations


class SharedBufferPool:
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
