"""LibRTS query correctness: every query type against the brute-force
oracle, across dtypes, dimensions, multicast settings, and handlers."""

import numpy as np
import pytest

from repro.core.handlers import CollectingHandler, CountingHandler
from repro.core.index import Predicate, RTSIndex
from repro.core.queries.contains import run_contains_query
from repro.geometry.boxes import Boxes
from repro.geometry.predicates import (
    join_contains_box,
    join_contains_point,
    join_intersects_box,
)
from tests.conftest import assert_pairs_equal, random_boxes, random_points


@pytest.fixture
def data(rng):
    return random_boxes(rng, 1500)


@pytest.fixture
def index(data):
    return RTSIndex(data, dtype=np.float64)


class TestPointQuery:
    def test_matches_oracle(self, index, data, rng):
        pts = random_points(rng, 600)
        res = index.query_points(pts)
        assert_pairs_equal(res.pairs(), join_contains_point(data, pts), "point")

    def test_every_generated_point_hits(self, data):
        from repro.datasets import point_queries

        pts = point_queries(data, 200, seed=5)
        res = RTSIndex(data, dtype=np.float64).query_points(pts)
        assert len(set(res.query_ids.tolist())) == 200

    def test_all_misses(self, index):
        pts = np.full((50, 2), 1e6)
        res = index.query_points(pts)
        assert len(res) == 0
        assert res.sim_time > 0

    def test_float32_index(self, rng):
        # Lattice coordinates are exactly representable in fp32, so the
        # fp32 index must agree with the fp64 oracle bit for bit.
        mins = rng.integers(0, 1000, (500, 2)).astype(np.float64) / 4
        data = Boxes(mins, mins + rng.integers(1, 40, (500, 2)) / 4)
        pts = rng.integers(0, 1050, (300, 2)).astype(np.float64) / 4
        res = RTSIndex(data, dtype=np.float32).query_points(pts)
        assert_pairs_equal(res.pairs(), join_contains_point(data, pts), "fp32 point")

    def test_3d(self, rng):
        lo = rng.random((400, 3)) * 50
        data = Boxes(lo, lo + rng.random((400, 3)) * 5)
        pts = random_points(rng, 200, d=3, domain=55)
        res = RTSIndex(data, ndim=3, dtype=np.float64).query_points(pts)
        assert_pairs_equal(res.pairs(), join_contains_point(data, pts), "3d point")

    def test_dimension_mismatch_rejected(self, index):
        with pytest.raises(ValueError, match="shape"):
            index.query_points(np.zeros((5, 3)))

    def test_phases_reported(self, index, rng):
        res = index.query_points(random_points(rng, 10))
        assert set(res.phases) == {"cast"}
        assert res.sim_time_ms == pytest.approx(res.phases["cast"] * 1e3)


class TestContainsQuery:
    def test_matches_oracle(self, index, data, rng):
        q = random_boxes(rng, 400, max_extent=2.0)
        res = index.query_contains(q)
        assert_pairs_equal(res.pairs(), join_contains_box(data, q), "contains")

    def test_equal_rect_is_contained(self, index, data):
        q = data[7]
        res = index.query_contains(q)
        assert (7, 0) in res.pair_set()

    def test_generated_queries_each_contained(self, data):
        from repro.datasets import contains_queries

        q = contains_queries(data, 100, seed=6)
        res = RTSIndex(data, dtype=np.float64).query_contains(q)
        assert len(set(res.query_ids.tolist())) == 100

    def test_3d(self, rng):
        lo = rng.random((300, 3)) * 50
        data = Boxes(lo, lo + rng.random((300, 3)) * 8 + 1)
        qlo = rng.random((150, 3)) * 55
        q = Boxes(qlo, qlo + rng.random((150, 3)) * 3 + 0.1)
        res = RTSIndex(data, ndim=3, dtype=np.float64).query_contains(q)
        assert_pairs_equal(res.pairs(), join_contains_box(data, q), "3d contains")


    @pytest.mark.parametrize("builder", ["fast_build", "fast_trace"])
    def test_casts_from_rectangle_centers(self, data, rng, builder):
        """Range-Contains is the point query's launch from the query
        rectangles' centers, filtered by the rectangle predicate."""
        idx = RTSIndex(data, dtype=np.float64, builder=builder, leaf_size=2)
        q = random_boxes(rng, 300, max_extent=2.0)
        rect = idx.query_contains(q)
        pt = idx.query_points(q.centers())
        for counter in ("nodes_visited", "is_invocations"):
            assert np.array_equal(
                getattr(rect.meta["stats_obj"], counter),
                getattr(pt.meta["stats_obj"], counter),
            )
        assert rect.pair_set() < pt.pair_set()
        assert_pairs_equal(rect.pairs(), join_contains_box(data, q), "contains")


@pytest.mark.parametrize(
    "queries, message",
    [
        (np.zeros((5, 3)), r"expected points of shape \(n, 2\)"),
        (np.zeros(5), r"expected points of shape \(n, 2\)"),
        (Boxes(np.zeros((4, 3)), np.ones((4, 3))), "expected 2-D query rectangles"),
    ],
)
def test_contains_kernel_rejects_wrong_dimension(index, queries, message):
    with pytest.raises(ValueError, match=message):
        run_contains_query(index, queries)

class TestIntersectsQuery:
    def test_matches_oracle(self, index, data, rng):
        q = random_boxes(rng, 300, max_extent=8.0)
        res = index.query_intersects(q)
        assert_pairs_equal(res.pairs(), join_intersects_box(data, q), "intersects")

    @pytest.mark.parametrize("k", [1, 2, 8, 64, 512])
    def test_k_invariance(self, index, data, rng, k):
        """Ray Multicast must not change results (no dup, no omission)."""
        q = random_boxes(rng, 150, max_extent=8.0)
        res = index.query_intersects(q, k=k)
        assert_pairs_equal(res.pairs(), join_intersects_box(data, q), f"k={k}")

    def test_no_duplicates_ever(self, index, rng):
        q = random_boxes(rng, 200, max_extent=10.0)
        res = index.query_intersects(q)
        pairs = np.stack(res.pairs(), axis=1)
        assert len(np.unique(pairs, axis=0)) == len(pairs)

    def test_multicast_disabled(self, data, rng):
        idx = RTSIndex(data, dtype=np.float64, multicast=False)
        q = random_boxes(rng, 100, max_extent=5.0)
        res = idx.query_intersects(q)
        assert res.meta["k"] == 1
        assert_pairs_equal(res.pairs(), join_intersects_box(data, q), "no-mc")

    def test_containment_both_ways_found(self, rng):
        big = Boxes([[0.0, 0.0]], [[100.0, 100.0]])
        small = Boxes([[10.0, 10.0]], [[11.0, 11.0]])
        data = big.concatenate(random_boxes(rng, 50))
        idx = RTSIndex(data, dtype=np.float64)
        # Query contained in data rect.
        assert (0, 0) in idx.query_intersects(small).pair_set()
        # Query containing a data rect.
        huge = Boxes([[-10.0, -10.0]], [[200.0, 200.0]])
        assert (0, 0) in idx.query_intersects(huge).pair_set()

    def test_crossing_rectangles_found(self):
        data = Boxes([[0.0, 40.0]], [[100.0, 60.0]])
        idx = RTSIndex(data, dtype=np.float64)
        cross = Boxes([[45.0, 0.0]], [[55.0, 100.0]])
        assert (0, 0) in idx.query_intersects(cross).pair_set()

    def test_phases_are_the_papers_four(self, index, rng):
        res = index.query_intersects(random_boxes(rng, 50))
        assert set(res.phases) == {
            "k_prediction",
            "bvh_build",
            "forward_cast",
            "backward_cast",
        }

    def test_degenerate_queries_rejected(self, index):
        q = Boxes([[0.0, 0.0]], [[1.0, 1.0]])
        q.degenerate(np.array([0]))
        with pytest.raises(ValueError, match="degenerate"):
            index.query_intersects(q)

    def test_3d(self, rng):
        lo = rng.random((300, 3)) * 50
        data = Boxes(lo, lo + rng.random((300, 3)) * 6)
        qlo = rng.random((120, 3)) * 50
        q = Boxes(qlo, qlo + rng.random((120, 3)) * 6)
        res = RTSIndex(data, ndim=3, dtype=np.float64).query_intersects(q)
        assert_pairs_equal(res.pairs(), join_intersects_box(data, q), "3d intersects")

    def test_3d_crossing_counterexample_geometry(self):
        """The 3-D configuration where diagonal casting alone fails must
        be handled by the shadow formulation."""
        data = Boxes([[0.0, 40.0, 43.0]], [[100.0, 60.0, 60.0]])
        q = Boxes([[40.0, 0.0, 40.0]], [[60.0, 100.0, 44.0]])
        idx = RTSIndex(data, ndim=3, dtype=np.float64)
        assert (0, 0) in idx.query_intersects(q).pair_set()


class TestHandlersAndDispatch:
    def test_collecting_handler_receives_pairs(self, index, rng):
        h = CollectingHandler()
        res = index.query_points(random_points(rng, 100), handler=h)
        assert_pairs_equal(h.pairs(), res.pairs(), "handler")

    def test_counting_handler(self, index, rng):
        h = CountingHandler()
        res = index.query_points(random_points(rng, 100), handler=h)
        assert h.total == len(res)

    def test_counting_per_query(self, index, data):
        h = CountingHandler()
        pts = data.centers()[:5]
        res = index.query_points(pts, handler=h)
        counts = np.bincount(res.query_ids, minlength=5)
        for qid in range(5):
            assert h.count_for(qid) == counts[qid]

    def test_handler_reset(self, index, rng):
        h = CollectingHandler()
        index.query_points(random_points(rng, 50), handler=h)
        h.reset()
        assert len(h) == 0

    def test_query_dispatch_enum(self, index, data, rng):
        pts = random_points(rng, 50)
        a = index.query(Predicate.CONTAINS_POINT, pts)
        b = index.query_points(pts)
        assert_pairs_equal(a.pairs(), b.pairs(), "dispatch")

    def test_query_empty_index_returns_empty(self):
        res = RTSIndex(ndim=2).query_points(np.zeros((1, 2)))
        assert len(res) == 0
        assert res.rect_ids.dtype == np.int64
        assert res.query_ids.dtype == np.int64
        assert res.phases == {}
        assert res.sim_time == 0.0

    def test_query_empty_after_delete_all(self, rng):
        boxes = random_boxes(rng, 8)
        idx = RTSIndex(boxes, dtype=np.float64)
        idx.delete(np.arange(len(boxes)))
        res = idx.query(Predicate.RANGE_INTERSECTS, random_boxes(rng, 5))
        assert len(res) == 0

    def test_paper_api_aliases(self, data, rng):
        idx = RTSIndex(dtype=np.float64)
        idx.Init("/fake/ptx/root")
        idx.Insert(data)
        h = CollectingHandler()
        idx.Query(Predicate.CONTAINS_POINT, random_points(rng, 40), arg=h)
        assert len(h) > 0
        ids = idx.Insert(Boxes([[500.0, 500.0]], [[501.0, 501.0]]))
        idx.Update(Boxes([[600.0, 600.0]], [[601.0, 601.0]]), ids)
        idx.Delete(ids)
        assert idx.n_rects == len(data)
