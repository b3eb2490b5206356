"""SAH BVH tests: oracle equivalence with the Morton builder, quality
advantage on skewed extents, refit semantics, GAS/RTSIndex wiring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import RTSIndex
from repro.geometry.boxes import Boxes
from repro.geometry.predicates import join_contains_point, join_intersects_box
from repro.geometry.ray import Rays
from repro.rtcore.bvh import BVH
from repro.rtcore.gas import GeometryAS
from repro.rtcore.sah import SAHBVH
from repro.rtcore.stats import TraversalStats
from tests.conftest import aabb_hit_pairs, assert_pairs_equal, random_boxes, random_points


def point_candidates(bvh, pts):
    rays = Rays.point_rays(pts)
    stats = TraversalStats(len(pts))
    c = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
    rows, prims = aabb_hit_pairs(c, bvh.boxes, rays)
    order = np.lexsort((prims, rows))
    return list(zip(rows[order].tolist(), prims[order].tolist())), stats


class TestCorrectness:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 3000])
    def test_matches_oracle(self, rng, n):
        boxes = random_boxes(rng, n)
        pts = random_points(rng, 200)
        got, _ = point_candidates(SAHBVH(boxes), pts)
        r, p = join_contains_point(boxes, pts)
        assert got == sorted(zip(p.tolist(), r.tolist()))

    def test_matches_morton_builder(self, rng):
        boxes = random_boxes(rng, 800)
        pts = random_points(rng, 300)
        a, _ = point_candidates(SAHBVH(boxes), pts)
        b, _ = point_candidates(BVH(boxes, leaf_size=4), pts)
        assert a == b

    def test_identical_centroids(self, rng):
        # Every primitive at the same centroid: median fallback must
        # still terminate and stay correct.
        mins = np.full((100, 2), 5.0) - rng.random((100, 2)) * 0  # all equal
        boxes = Boxes(mins, mins + 1.0)
        got, _ = point_candidates(SAHBVH(boxes), np.array([[5.5, 5.5], [9.0, 9.0]]))
        assert got == [(0, i) for i in range(100)]

    def test_leaf_size_one(self, rng):
        boxes = random_boxes(rng, 64)
        pts = random_points(rng, 100)
        got, _ = point_candidates(SAHBVH(boxes, leaf_size=1), pts)
        r, p = join_contains_point(boxes, pts)
        assert got == sorted(zip(p.tolist(), r.tolist()))

    def test_every_prim_in_exactly_one_leaf(self, rng):
        bvh = SAHBVH(random_boxes(rng, 333))
        is_leaf = bvh.left == -1
        total = int(bvh.count[is_leaf].sum())
        assert total == 333
        assert sorted(bvh.perm.tolist()) == list(range(333))


class TestQuality:
    def test_fewer_visits_on_skewed_extents(self, rng):
        """The fast-trace preset's reason to exist."""
        mins = rng.random((5000, 2)) * 100
        boxes = Boxes(mins, mins + rng.lognormal(0.0, 1.3, (5000, 2)))
        pts = random_points(rng, 500)
        _, s_sah = point_candidates(SAHBVH(boxes), pts)
        _, s_mor = point_candidates(BVH(boxes, leaf_size=4), pts)
        assert s_sah.nodes_visited.sum() < 0.8 * s_mor.nodes_visited.sum()

    def test_parent_encloses_children(self, rng):
        bvh = SAHBVH(random_boxes(rng, 500))
        inner = np.nonzero(bvh.left != -1)[0]
        for node in inner:
            for child in (bvh.left[node], bvh.right[node]):
                assert (bvh.node_mins[node] <= bvh.node_mins[child]).all()
                assert (bvh.node_maxs[node] >= bvh.node_maxs[child]).all()


class TestRefit:
    def test_refit_tracks_updates(self, rng):
        boxes = random_boxes(rng, 400)
        bvh = SAHBVH(boxes)
        boxes.mins[:] = rng.random((400, 2)) * 50
        boxes.maxs[:] = boxes.mins + 1.0
        bvh.refit()
        pts = random_points(rng, 200, domain=55)
        got, _ = point_candidates(bvh, pts)
        r, p = join_contains_point(boxes, pts)
        assert got == sorted(zip(p.tolist(), r.tolist()))

    def test_degenerated_prims_unreachable(self, rng):
        boxes = random_boxes(rng, 120)
        centers = boxes.centers()[:30].copy()
        bvh = SAHBVH(boxes)
        boxes.degenerate(np.arange(30))
        bvh.refit()
        got, _ = point_candidates(bvh, centers)
        assert not {p for _, p in got} & set(range(30))

    def test_rebuild(self, rng):
        boxes = random_boxes(rng, 200)
        bvh = SAHBVH(boxes)
        boxes.mins += 10.0
        boxes.maxs += 10.0
        bvh.rebuild()
        lo, hi = bvh.node_mins[0], bvh.node_maxs[0]
        assert (lo <= boxes.mins).all() and (hi >= boxes.maxs).all()


class TestWiring:
    def test_gas_builder_param(self, rng):
        boxes = random_boxes(rng, 100)
        gas = GeometryAS(boxes, builder="fast_trace")
        assert isinstance(gas.bvh, SAHBVH)
        with pytest.raises(ValueError, match="builder"):
            GeometryAS(boxes, builder="turbo")

    def test_index_with_sah_builder_matches_oracle(self, rng):
        data = random_boxes(rng, 900)
        idx = RTSIndex(data, dtype=np.float64, builder="fast_trace")
        pts = random_points(rng, 300)
        assert_pairs_equal(
            idx.query_points(pts).pairs(), join_contains_point(data, pts), "sah point"
        )
        q = random_boxes(rng, 150, max_extent=8.0)
        assert_pairs_equal(
            idx.query_intersects(q).pairs(), join_intersects_box(data, q), "sah isect"
        )

    def test_index_sah_mutation(self, rng):
        idx = RTSIndex(random_boxes(rng, 200), dtype=np.float64, builder="fast_trace")
        ids = idx.insert(random_boxes(rng, 50))
        idx.delete(ids[:25])
        idx.update(ids[25:26], Boxes([[500.0, 500.0]], [[501.0, 501.0]]))
        res = idx.query_points(np.array([[500.5, 500.5]]))
        assert (ids[25], 0) in res.pair_set()


@given(st.integers(0, 2**32 - 1), st.integers(1, 150), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_sah_completeness_property(seed, n, leaf_size):
    rng = np.random.default_rng(seed)
    boxes = random_boxes(rng, n, max_extent=rng.choice([0.5, 10.0, 60.0]))
    pts = random_points(rng, 25)
    got, _ = point_candidates(SAHBVH(boxes, leaf_size=leaf_size), pts)
    r, p = join_contains_point(boxes, pts)
    assert got == sorted(zip(p.tolist(), r.tolist()))
