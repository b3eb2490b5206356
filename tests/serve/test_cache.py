"""Result cache: LRU behavior, digest discrimination, epoch keying."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.core.result import QueryResult
from repro.serve import (
    ResultCache,
    ServiceConfig,
    SpatialQueryService,
    query_digest,
)

from tests.conftest import assert_pairs_equal, random_boxes, random_points


def _result(n=3):
    ids = np.arange(n, dtype=np.int64)
    return QueryResult(ids, ids.copy(), {"cast": 1.0}, {"epoch": 0})


class TestDigest:
    def test_points_digest_content_sensitive(self, rng):
        pts = random_points(rng, 10)
        assert query_digest(pts) == query_digest(pts.copy())
        bumped = pts.copy()
        bumped[3, 1] += 1e-9
        assert query_digest(pts) != query_digest(bumped)

    def test_digest_distinguishes_dtype_and_shape(self, rng):
        pts = random_points(rng, 12)
        assert query_digest(pts) != query_digest(pts.astype(np.float32))
        assert query_digest(pts) != query_digest(pts.reshape(6, 4))

    def test_boxes_digest(self, rng):
        qs = random_boxes(rng, 10)
        same = random_boxes(np.random.default_rng(12345), 10)
        assert query_digest(qs) == query_digest(same)
        other = random_boxes(rng, 10)
        assert query_digest(qs) != query_digest(other)


class TestLRU:
    def test_eviction_order(self):
        cache = ResultCache(capacity=2)
        k1, k2, k3 = ("a",), ("b",), ("c",)
        cache.put(k1, _result())
        cache.put(k2, _result())
        cache.get(k1)  # refresh k1 → k2 is now LRU
        cache.put(k3, _result())
        assert cache.get(k2) is None
        assert cache.get(k1) is not None
        assert cache.get(k3) is not None
        assert len(cache) == 2

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put(("a",), _result())
        assert cache.get(("a",)) is None
        assert len(cache) == 0

    def test_capacity_zero_still_counts_misses(self):
        """A disabled cache is all-miss, not no-accounting: its stats
        must reflect the lookups that flowed through it."""
        cache = ResultCache(capacity=0)
        cache.get(("a",))
        cache.get(("b",))
        stats = cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 0
        assert stats["hit_rate"] == 0.0
        assert cache.hit_rate == 0.0

    def test_mutating_hit_arrays_raises(self):
        """Regression: pair arrays are frozen at put time, so a caller
        writing through a hit raises instead of silently corrupting the
        cached entry (and every future hit on it)."""
        cache = ResultCache(capacity=4)
        cache.put(("a",), _result())
        hit = cache.get(("a",))
        with pytest.raises(ValueError, match="read-only"):
            hit.rect_ids[0] = 999
        with pytest.raises(ValueError, match="read-only"):
            hit.query_ids[0] = 999
        # The entry is intact and later hits still share the same arrays.
        again = cache.get(("a",))
        assert np.array_equal(again.rect_ids, np.arange(3))
        assert again.rect_ids is hit.rect_ids

    def test_stats_snapshot(self):
        cache = ResultCache(capacity=4)
        cache.put(("a",), _result())
        cache.get(("a",))
        cache.get(("missing",))
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
            "capacity": 4,
            "hit_rate": 0.5,
        }

    def test_hit_is_isolated_copy(self):
        cache = ResultCache(capacity=4)
        cache.put(("a",), _result())
        hit = cache.get(("a",))
        assert hit.meta["cache_hit"] is True
        hit.meta["poison"] = True
        hit.phases["cast"] = -1.0
        again = cache.get(("a",))
        assert "poison" not in again.meta
        assert again.phases["cast"] == 1.0

    def test_epoch_in_key(self):
        cache = ResultCache(capacity=4)
        k_old = ResultCache.key(Predicate.CONTAINS_POINT, "d", None, 0)
        k_new = ResultCache.key(Predicate.CONTAINS_POINT, "d", None, 1)
        assert k_old != k_new
        cache.put(k_old, _result())
        assert cache.get(k_new) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)


class TestServiceCache:
    def test_repeat_query_hits_and_is_identical(self, rng):
        data = random_boxes(rng, 300)
        with SpatialQueryService(
            RTSIndex(data, dtype=np.float64, seed=6),
            ServiceConfig(max_wait=0.0, cache_size=16),
        ) as svc:
            pts = random_points(rng, 20)
            first = svc.query_points(pts)
            second = svc.query_points(pts)
            assert first.meta["cache_hit"] is False
            assert second.meta["cache_hit"] is True
            assert_pairs_equal(second.pairs(), first.pairs(), "cached")
            assert svc.metrics.counter("serve.cache.hits") == 1
            # The hit is served without a launch.
            assert svc.metrics.counter("serve.batches") == 1

    def test_epoch_bump_invalidates(self, rng):
        data = random_boxes(rng, 300)
        with SpatialQueryService(
            RTSIndex(data, dtype=np.float64, seed=6),
            ServiceConfig(max_wait=0.0, cache_size=16),
        ) as svc:
            pts = random_points(rng, 20)
            before = svc.query_points(pts)
            svc.insert(random_boxes(rng, 64, max_extent=50.0))
            after = svc.query_points(pts)
            # Never a stale hit: the epoch changed, so the second answer
            # is recomputed against the new snapshot.
            assert after.meta["cache_hit"] is False
            assert after.meta["epoch"] == before.meta["epoch"] + 1
            assert svc.metrics.counter("serve.cache.hits") == 0
            direct = svc.snapshot().query_points(
                np.ascontiguousarray(pts, dtype=np.float64)
            )
            assert_pairs_equal(after.pairs(), direct.pairs(), "post-mutation")

    def test_distinct_k_distinct_entries(self, rng):
        data = random_boxes(rng, 300)
        with SpatialQueryService(
            RTSIndex(data, dtype=np.float64, seed=6),
            ServiceConfig(max_wait=0.0, cache_size=16),
        ) as svc:
            qs = random_boxes(rng, 10)
            svc.query_intersects(qs, k=1)
            res = svc.query_intersects(qs, k=2)
            assert res.meta["cache_hit"] is False
            assert svc.query_intersects(qs, k=2).meta["cache_hit"] is True

    def test_cache_disabled(self, rng):
        data = random_boxes(rng, 300)
        with SpatialQueryService(
            RTSIndex(data, dtype=np.float64, seed=6),
            ServiceConfig(max_wait=0.0, cache_size=0),
        ) as svc:
            pts = random_points(rng, 20)
            svc.query_points(pts)
            assert svc.query_points(pts).meta["cache_hit"] is False
            assert "serve.cache.hits" not in svc.metrics.as_dict()["counters"]
