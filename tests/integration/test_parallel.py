"""Parallel executor tests."""

import numpy as np
import pytest

from repro.parallel import (
    MIN_SHARD_SIZE,
    ChunkedExecutor,
    plan_shards,
    shard_queries,
    shared_pool,
)
from tests.conftest import random_boxes, random_points


class TestSharding:
    def test_even_shards(self):
        shards = shard_queries(100, 4)
        assert [len(s) for s in shards] == [25, 25, 25, 25]
        assert np.array_equal(np.concatenate(shards), np.arange(100))

    def test_more_shards_than_queries(self):
        shards = shard_queries(3, 8)
        assert sum(len(s) for s in shards) == 3
        assert all(len(s) > 0 for s in shards)

    def test_zero_queries(self):
        assert sum(len(s) for s in shard_queries(0, 4)) == 0


class TestShardPlanning:
    def test_serial_when_single_worker(self):
        assert len(plan_shards(1_000_000, 1)) == 1

    def test_serial_when_batch_below_floor(self):
        # Batches under 2x the minimum shard size are not worth sharding.
        assert len(plan_shards(2 * MIN_SHARD_SIZE - 1, 8)) == 1

    def test_shards_scale_with_workers(self):
        shards = plan_shards(1_000_000, 4)
        assert len(shards) == 16  # 4 shards per worker
        assert np.array_equal(np.concatenate(shards), np.arange(1_000_000))

    def test_min_shard_size_caps_shard_count(self):
        # 4096 queries over 8 workers would give 32 shards of 128 each;
        # the floor caps it at n // MIN_SHARD_SIZE.
        shards = plan_shards(4 * MIN_SHARD_SIZE, 8)
        assert len(shards) == 4
        assert all(len(s) >= MIN_SHARD_SIZE for s in shards)

    def test_shared_pool_reused_per_width(self):
        assert shared_pool(3) is shared_pool(3)
        assert shared_pool(3) is not shared_pool(5)


class TestPoolLifecycle:
    """Pool refcounting: closing the last owner of a width tears the
    shared pool down instead of stranding it for the process lifetime."""

    def _refs(self):
        from repro.parallel import executor as ex

        return ex._pool_refs

    def _pools(self):
        from repro.parallel import executor as ex

        return ex._pools

    def test_close_releases_last_reference(self):
        ex = ChunkedExecutor(n_workers=11)
        pool = ex._pool()
        assert self._refs()[11] == 1
        assert not pool._shutdown
        ex.close()
        assert 11 not in self._refs()
        assert 11 not in self._pools()
        assert pool._shutdown

    def test_shared_width_survives_one_close(self):
        a = ChunkedExecutor(n_workers=12)
        b = ChunkedExecutor(n_workers=12)
        pool = a._pool()
        assert b._pool() is pool
        a.close()
        assert self._refs()[12] == 1
        assert not pool._shutdown
        b.close()
        assert 12 not in self._refs()
        assert pool._shutdown

    def test_close_idempotent_and_blocks_reuse(self):
        ex = ChunkedExecutor(n_workers=13)
        ex._pool()
        ex.close()
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex._pool()

    def test_close_without_use_is_noop(self):
        before = dict(self._refs())
        ChunkedExecutor(n_workers=14).close()
        assert self._refs() == before

    def test_context_manager(self):
        with ChunkedExecutor(n_workers=15) as ex:
            ex._pool()
        assert 15 not in self._refs()

    def test_index_close_releases_every_width(self, rng):
        from repro.core.index import RTSIndex

        before = dict(self._refs())
        idx = RTSIndex(random_boxes(rng, 50), dtype=np.float64, seed=2,
                       parallel=True, n_workers=2)
        pts = random_points(rng, 30)
        idx.query_points(pts)
        idx.query_points(pts, n_workers=3)  # second width, second executor
        assert set(idx._executors) == {2, 3}
        # Force both executors onto the shared pools so close() has real
        # references to release (small batches alone stay serial).
        for ex in idx._executors.values():
            ex._pool()
        idx.close()
        assert idx._executors == {}
        assert self._refs() == before
        # close() releases resources but the index stays queryable.
        assert len(idx.query_points(pts)) >= 0
        idx.close()

    def test_worker_sweep_does_not_strand_pools(self, rng):
        """The original leak: sweeping n_workers left one live pool per
        width behind. Now each width is refcounted and released."""
        from repro.core.index import RTSIndex

        before_refs = dict(self._refs())
        widths = [2, 3, 4]
        with RTSIndex(random_boxes(rng, 50), dtype=np.float64, seed=2,
                      parallel=True) as idx:
            for w in widths:
                idx.query_points(random_points(rng, 20), n_workers=w)
                idx._executors[w]._pool()
        assert self._refs() == before_refs
