"""Tests for shared-buffer admission models."""

import pytest

from repro.netsim.buffers import SharedBufferPool


class TestSharedPool:
    def test_admits_within_total(self):
        pool = SharedBufferPool(total_bytes=10_000, alpha=10.0)
        assert pool.try_reserve(0, 0, 1500)
        assert pool.used_bytes == 1500
        assert pool.free_bytes == 8500

    def test_rejects_beyond_total(self):
        pool = SharedBufferPool(total_bytes=1000, alpha=10.0)
        assert not pool.try_reserve(0, 0, 1500)
        assert pool.rejections == 1

    def test_dynamic_threshold_shrinks_with_usage(self):
        # alpha=1: a queue may hold at most the free memory.
        pool = SharedBufferPool(total_bytes=10_000, alpha=1.0)
        assert pool.threshold_bytes() == 10_000
        pool.try_reserve(0, 0, 6000)
        assert pool.threshold_bytes() == 4000
        # Queue 0 now at 6000 > threshold 4000: next packet rejected.
        assert not pool.try_reserve(0, 6000, 1500)
        # A short queue on another port is still admitted.
        assert pool.try_reserve(1, 0, 1500)

    def test_equilibrium_splits_memory(self):
        """With alpha=1 and one hog queue, the DT rule caps it near half
        of total memory (threshold == free == total - used)."""
        pool = SharedBufferPool(total_bytes=10_000, alpha=1.0)
        occupancy = 0
        while pool.try_reserve(0, occupancy, 100):
            occupancy += 100
        assert occupancy == pytest.approx(5000, abs=200)

    def test_release_restores_threshold(self):
        pool = SharedBufferPool(total_bytes=10_000, alpha=1.0)
        pool.try_reserve(0, 0, 6000)
        pool.release(0, 6000)
        assert pool.threshold_bytes() == 10_000

    def test_over_release_raises(self):
        pool = SharedBufferPool(total_bytes=1000)
        with pytest.raises(RuntimeError):
            pool.release(0, 1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SharedBufferPool(total_bytes=0)
        with pytest.raises(ValueError):
            SharedBufferPool(total_bytes=100, alpha=0.0)
