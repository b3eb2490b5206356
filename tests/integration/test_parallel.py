"""Parallel executor tests."""

import math

import numpy as np
import pytest

from repro.parallel import (
    MAX_SHARD_ROWS,
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


def rule_shard_count(n: int, n_workers: int) -> int:
    """The fan-out rule written out: serial under two minimum shards,
    else one shard per worker times the row-cap multiple, never more
    than ``n // MIN_SHARD_SIZE``."""
    if n_workers <= 1 or n < 2 * MIN_SHARD_SIZE:
        return 1
    per_worker = math.ceil(n / (n_workers * MAX_SHARD_ROWS))
    return min(n // MIN_SHARD_SIZE, n_workers * per_worker)


class TestShardPlanning:
    def test_serial_when_single_worker(self):
        assert len(plan_shards(1_000_000, 1)) == 1

    def test_serial_when_batch_below_floor(self):
        # Batches under 2x the minimum shard size are not worth sharding.
        assert len(plan_shards(2 * MIN_SHARD_SIZE - 1, 8)) == 1

    def test_one_shard_per_worker_up_to_the_row_cap(self):
        assert len(plan_shards(4 * MAX_SHARD_ROWS, 4)) == 4
        # One row more and every worker takes a second shard.
        assert len(plan_shards(4 * MAX_SHARD_ROWS + 1, 4)) == 8

    def test_shards_scale_with_rows(self):
        shards = plan_shards(1_000_000, 4)
        assert len(shards) == 4 * math.ceil(1_000_000 / (4 * MAX_SHARD_ROWS))
        assert max(len(s) for s in shards) <= MAX_SHARD_ROWS
        assert np.array_equal(np.concatenate(shards), np.arange(1_000_000))

    def test_min_shard_size_caps_shard_count(self):
        # 4096 queries over 8 workers would give 8 shards of 512 each;
        # the floor caps it at n // MIN_SHARD_SIZE.
        shards = plan_shards(4 * MIN_SHARD_SIZE, 8)
        assert len(shards) == 4
        assert all(len(s) >= MIN_SHARD_SIZE for s in shards)

    @pytest.mark.parametrize(
        "n,n_shards",
        [(10_000, 2), (5_000, 2), (2_000, 1), (200_000, 14)],
        ids=["points", "contains", "forward-cast", "backward-cast"],
    )
    def test_batch_skew_plans(self, n, n_shards):
        """batch-skew's launches at 2 workers: the point and contains
        batches split once per worker, the 2k forward cast stays serial
        and the 200k-ray backward cast is cut by the row cap."""
        assert len(plan_shards(n, 2)) == n_shards

    @pytest.mark.parametrize(
        "n,n_workers",
        [(5, 4), (2 * MIN_SHARD_SIZE, 2), (10_000, 3), (200_000, 2),
         (1_000_003, 7), (50_000, 64)],
    )
    def test_shards_are_contiguous_and_cover_the_batch(self, n, n_workers):
        shards = plan_shards(n, n_workers)
        assert len(shards) == rule_shard_count(n, n_workers)
        if len(shards) > 1:
            assert all(MIN_SHARD_SIZE <= len(s) <= MAX_SHARD_ROWS for s in shards)
        assert np.array_equal(
            np.concatenate(shards), np.arange(n, dtype=np.int64)
        )

    def test_rule_reads_module_constants(self, monkeypatch):
        """``plan_shards`` reads ``MIN_SHARD_SIZE``/``MAX_SHARD_ROWS``
        at call time, so lowering them forces small batches to shard."""
        from repro.parallel import executor

        assert len(plan_shards(200, 4)) == 1
        monkeypatch.setattr(executor, "MIN_SHARD_SIZE", 10)
        assert len(plan_shards(200, 4)) == 4
        monkeypatch.setattr(executor, "MAX_SHARD_ROWS", 25)
        assert len(plan_shards(200, 4)) == 8
        monkeypatch.setattr(executor, "MAX_SHARD_ROWS", 1)
        assert len(plan_shards(200, 4)) == 20  # the floor: 200 // 10

    def test_executor_plan_is_the_rule(self):
        ex = ChunkedExecutor(3)
        for n in (0, 5, 2 * MIN_SHARD_SIZE - 1, 2 * MIN_SHARD_SIZE, 50_000):
            got, want = ex.plan(n), plan_shards(n, 3)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

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

    def test_index_owns_one_executor(self, rng):
        """An index fixes its executor at build: none when serial, else
        one, reused by every launch and released by ``close()``."""
        from repro.core.index import RTSIndex

        data = random_boxes(rng, 50)
        for kw in ({}, {"parallel": True, "n_workers": 1}):
            assert RTSIndex(data, dtype=np.float64, **kw)._executor is None
        before = dict(self._refs())
        idx = RTSIndex(data, dtype=np.float64, seed=2, parallel=True, n_workers=16)
        pts = random_points(rng, 2 * MIN_SHARD_SIZE)
        assert idx.query_points(pts).meta["n_shards"] == 2
        ex = idx._executor
        assert self._refs()[16] == 1
        idx.query_points(pts)
        assert idx._executor is ex
        idx.close()
        assert idx._executor is not ex and self._refs() == before
        # close() releases resources but the index stays queryable.
        assert idx.query_points(pts).meta["n_shards"] == 2
        idx.close()
        assert self._refs() == before

    def test_indexes_of_one_width_share_a_pool(self, rng):
        """Each parallel index holds one reference on the shared pool of
        its width; the pool outlives the first close and shuts down on
        the last."""
        from repro.core.index import RTSIndex

        data = random_boxes(rng, 50)
        pts = random_points(rng, 2 * MIN_SHARD_SIZE)
        a = RTSIndex(data, dtype=np.float64, seed=2, parallel=True, n_workers=17)
        b = RTSIndex(data, dtype=np.float64, seed=2, parallel=True, n_workers=17)
        assert a._executor is not b._executor
        a.query_points(pts)
        b.query_points(pts)
        pool = self._pools()[17]
        assert self._refs()[17] == 2
        a.close()
        assert self._refs()[17] == 1
        assert not pool._shutdown
        b.close()
        assert 17 not in self._refs()
        assert 17 not in self._pools()
        assert pool._shutdown

    def test_worker_sweep_does_not_strand_pools(self, rng):
        """The original leak: sweeping n_workers left one live pool per
        width behind. Each width's index holds a counted reference and
        closing it releases the pool."""
        from repro.core.index import RTSIndex

        before_refs = dict(self._refs())
        data = random_boxes(rng, 50)
        pts = random_points(rng, 2 * MIN_SHARD_SIZE)
        widths = [18, 19, 20]
        for w in widths:
            with RTSIndex(data, dtype=np.float64, seed=2,
                          parallel=True, n_workers=w) as idx:
                assert idx.query_points(pts).meta["n_shards"] == 2
                assert self._refs()[w] == 1
        assert self._refs() == before_refs
        assert not set(widths) & set(self._pools())

    def test_fork_gets_its_own_executor(self, rng):
        """A fork shards like its parent but owns a separate executor, so
        closing the fork leaves the parent's pool reference alone."""
        from repro.core.index import RTSIndex

        pts = random_points(rng, 2 * MIN_SHARD_SIZE)
        with RTSIndex(random_boxes(rng, 50), dtype=np.float64, seed=2,
                      parallel=True, n_workers=21) as parent:
            parent.query_points(pts)
            fork = parent.fork()
            assert fork._executor is not None
            assert fork._executor is not parent._executor
            assert fork._executor.n_workers == 21
            assert fork.query_points(pts).meta["n_shards"] == 2
            assert self._refs()[21] == 2
            fork.close()
            assert self._refs()[21] == 1
            assert parent.query_points(pts).meta["n_shards"] == 2
        assert 21 not in self._refs()
