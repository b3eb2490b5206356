"""BVH tests: construction invariants, traversal vs oracle, refit
semantics, box-overlap traversal, work counting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.boxes import Boxes
from repro.geometry.ray import Rays
from repro.geometry.segment import diagonal, join_segment_intersects_box
from repro.geometry.predicates import join_contains_point, join_intersects_box
from repro.rtcore.bvh import BVH, _next_pow2
from repro.rtcore.stats import TraversalStats
from tests.conftest import random_boxes, random_points


def canonical(rows, prims):
    order = np.lexsort((prims, rows))
    return list(zip(rows[order].tolist(), prims[order].tolist()))


class TestConstruction:
    def test_next_pow2(self):
        assert [_next_pow2(i) for i in (0, 1, 2, 3, 4, 5, 17)] == [1, 1, 2, 4, 4, 8, 32]

    def test_node_count(self, rng):
        boxes = random_boxes(rng, 37)
        bvh = BVH(boxes, leaf_size=1)
        assert bvh.n_leaves == 64
        assert len(bvh.node_mins) == 2 * 64 - 1

    def test_leaf_size_reduces_leaves(self, rng):
        boxes = random_boxes(rng, 64)
        assert BVH(boxes, leaf_size=4).n_leaves == 16

    def test_invalid_leaf_size(self, rng):
        with pytest.raises(ValueError):
            BVH(random_boxes(rng, 4), leaf_size=0)

    def test_root_encloses_everything(self, rng):
        boxes = random_boxes(rng, 200)
        bvh = BVH(boxes)
        lo, hi = bvh.root_bounds()
        assert (lo <= boxes.mins).all() and (hi >= boxes.maxs).all()

    def test_parent_encloses_children(self, rng):
        boxes = random_boxes(rng, 100)
        bvh = BVH(boxes)
        n = len(bvh.node_mins)
        for parent in range((n - 1) // 2):
            for child in (2 * parent + 1, 2 * parent + 2):
                # Degenerate (padding) children vacuously enclosed.
                assert (
                    bvh.node_mins[parent] <= bvh.node_mins[child]
                ).all() or (bvh.node_mins[child] > bvh.node_maxs[child]).any()

    def test_every_prim_in_exactly_one_leaf_slot(self, rng):
        boxes = random_boxes(rng, 77)
        bvh = BVH(boxes, leaf_size=4)
        prims = bvh.leaf_prims[bvh.leaf_prims >= 0]
        assert sorted(prims.tolist()) == list(range(77))

    def test_empty_bvh(self):
        bvh = BVH(Boxes.empty(2))
        stats = TraversalStats(3)
        rays = Rays.point_rays(np.zeros((3, 2)))
        out = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        assert len(out) == 0

    def test_single_primitive(self):
        bvh = BVH(Boxes([[0.0, 0.0]], [[1.0, 1.0]]))
        rays = Rays.point_rays(np.array([[0.5, 0.5], [2.0, 2.0]]))
        stats = TraversalStats(2)
        out = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        assert canonical(out.rows, out.prims) == [(0, 0)]


class TestPairMajorStorage:
    @pytest.mark.parametrize("d,dtype", [(2, np.float32), (3, np.float64)])
    @pytest.mark.parametrize("leaf_size", [1, 4])
    def test_one_stored_copy_of_node_bounds(self, rng, d, dtype, leaf_size):
        """The float node arrays a BVH holds total exactly one copy of
        its bounds, after the build and after launches (no cached
        second layout)."""
        boxes = random_boxes(rng, 300, d=d, dtype=dtype)
        bvh = BVH(boxes, leaf_size=leaf_size)

        def float_bytes():
            return sum(
                a.nbytes for a in vars(bvh).values()
                if isinstance(a, np.ndarray) and a.dtype.kind == "f"
            )

        want = 2 * bvh.n_nodes * d * np.dtype(dtype).itemsize
        assert float_bytes() == bvh.node_bytes == want
        rays = Rays.segment_rays(random_points(rng, 50, d=d), random_points(rng, 50, d=d))
        bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, TraversalStats(50))
        bvh.traverse_boxes(boxes.mins[:20], boxes.maxs[:20], TraversalStats(20))
        assert float_bytes() == want

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 100])
    def test_node_order_views_match_pair_blocks(self, rng, n):
        """``node_mins``/``node_maxs``/``_live`` read the pair-major
        storage back in node-id order: node ``2j+1``/``2j+2`` is the
        left/right child of pair *j*, node 0 the root."""
        bvh = BVH(random_boxes(rng, n), leaf_size=1)
        (lo_pairs, lo_root), (hi_pairs, hi_root) = bvh.bound_views()
        assert lo_pairs.shape == hi_pairs.shape == (2, 2, (bvh.n_nodes - 1) // 2)
        live = bvh.node_live
        for node in range(bvh.n_nodes):
            if node == 0:
                lo, hi, ok = lo_root, hi_root, live[-1]
            else:
                side, j = (node - 1) % 2, (node - 1) // 2
                lo, hi = lo_pairs[:, side, j], hi_pairs[:, side, j]
                ok = live[side * lo_pairs.shape[-1] + j]
            assert np.array_equal(bvh.node_mins[node], lo)
            assert np.array_equal(bvh.node_maxs[node], hi)
            assert bvh._live[node] == ok == (lo <= hi).all()
        lo, hi = bvh.root_bounds()
        assert np.array_equal(lo, bvh.node_mins[0]) and np.array_equal(hi, bvh.node_maxs[0])


class TestTraversalOracle:
    @pytest.mark.parametrize("leaf_size", [1, 4])
    def test_point_rays_match_oracle(self, rng, leaf_size):
        boxes = random_boxes(rng, 500)
        pts = random_points(rng, 300)
        bvh = BVH(boxes, leaf_size=leaf_size)
        rays = Rays.point_rays(pts)
        stats = TraversalStats(len(pts))
        out = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        rows, prims = out.rows[out.aabb_hit], out.prims[out.aabb_hit]
        # aabb_hit=True candidates are exactly the point-in-box pairs
        # (point rays register only Case-2, origin-inside, hits).
        oracle_r, oracle_p = join_contains_point(boxes, pts)
        assert canonical(rows, prims) == canonical(oracle_p, oracle_r)

    @pytest.mark.parametrize("leaf_size", [1, 4])
    def test_segment_rays_match_oracle(self, rng, leaf_size):
        boxes = random_boxes(rng, 300)
        queries = random_boxes(rng, 150, max_extent=15.0)
        p1, p2 = diagonal(queries)
        bvh = BVH(boxes, leaf_size=leaf_size)
        stats = TraversalStats(len(queries))
        out = bvh.traverse(
            p1, p2 - p1, np.zeros(len(queries)), np.ones(len(queries)), stats
        )
        rows, prims = out.rows[out.aabb_hit], out.prims[out.aabb_hit]
        si, bi = join_segment_intersects_box(p1, p2, boxes)
        assert canonical(rows, prims) == canonical(si, bi)

    def test_traverse_boxes_matches_oracle(self, rng):
        boxes = random_boxes(rng, 400)
        queries = random_boxes(rng, 200, max_extent=10.0)
        bvh = BVH(boxes, leaf_size=4)
        stats = TraversalStats(len(queries))
        rows, prims = bvh.traverse_boxes(queries.mins, queries.maxs, stats)
        oracle_r, oracle_q = join_intersects_box(boxes, queries)
        assert canonical(rows, prims) == canonical(oracle_q, oracle_r)

    def test_float32(self, rng):
        boxes = random_boxes(rng, 200, dtype=np.float32)
        pts = random_points(rng, 100).astype(np.float32)
        bvh = BVH(boxes)
        rays = Rays.point_rays(pts)
        stats = TraversalStats(len(pts))
        out = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        oracle_r, oracle_p = join_contains_point(boxes, pts)
        assert canonical(out.rows[out.aabb_hit], out.prims[out.aabb_hit]) == canonical(
            oracle_p, oracle_r
        )


class TestWorkCounting:
    def test_every_ray_pays_root_visit(self, rng):
        boxes = random_boxes(rng, 100)
        bvh = BVH(boxes)
        pts = random_points(rng, 50, domain=500.0)  # mostly misses
        rays = Rays.point_rays(pts)
        stats = TraversalStats(50)
        bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        assert (stats.nodes_visited >= 1).all()

    def test_is_invocations_bound_results(self, rng):
        boxes = random_boxes(rng, 300)
        pts = random_points(rng, 100)
        bvh = BVH(boxes, leaf_size=4)
        rays = Rays.point_rays(pts)
        stats = TraversalStats(100)
        out = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        assert stats.is_invocations.sum() == len(out)
        assert out.aabb_hit.sum() <= len(out)

    def test_stat_ids_remap(self, rng):
        """Sub-launches can accumulate into shared logical slots."""
        boxes = random_boxes(rng, 50)
        bvh = BVH(boxes)
        pts = random_points(rng, 10)
        rays = Rays.point_rays(pts)
        stats = TraversalStats(5)
        ids = np.arange(10, dtype=np.int64) % 5
        bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats, ids)
        assert stats.nodes_visited.sum() > 0
        assert stats.n_rays == 5


class TestRefit:
    def test_refit_tracks_moved_prims(self, rng):
        boxes = random_boxes(rng, 200)
        bvh = BVH(boxes)
        boxes.mins += 50.0
        boxes.maxs += 50.0
        bvh.refit()
        lo, hi = bvh.root_bounds()
        assert (lo <= boxes.mins).all() and (hi >= boxes.maxs).all()

    def test_refit_preserves_correctness(self, rng):
        boxes = random_boxes(rng, 300)
        bvh = BVH(boxes, leaf_size=2)
        # Scatter primitives far from their build positions.
        boxes.mins[:] = rng.random((300, 2)) * 100
        boxes.maxs[:] = boxes.mins + rng.random((300, 2)) * 5
        bvh.refit()
        pts = random_points(rng, 200)
        rays = Rays.point_rays(pts)
        stats = TraversalStats(200)
        out = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        oracle_r, oracle_p = join_contains_point(boxes, pts)
        assert canonical(out.rows[out.aabb_hit], out.prims[out.aabb_hit]) == canonical(
            oracle_p, oracle_r
        )

    def test_refit_degrades_traversal_quality(self, rng):
        """The Figure 10(c) mechanism: after shuffling primitive
        positions, a refit BVH visits more nodes than a rebuilt one."""
        boxes = random_boxes(rng, 2000)
        bvh = BVH(boxes)
        perm = rng.permutation(2000)
        boxes.mins[:] = boxes.mins[perm]
        boxes.maxs[:] = boxes.maxs[perm]
        bvh.refit()
        pts = random_points(rng, 500)
        rays = Rays.point_rays(pts)
        stats_refit = TraversalStats(500)
        bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats_refit)
        bvh.rebuild()
        stats_rebuilt = TraversalStats(500)
        bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats_rebuilt)
        assert stats_refit.nodes_visited.sum() > 1.5 * stats_rebuilt.nodes_visited.sum()

    def test_degenerated_prims_unreachable(self, rng):
        boxes = random_boxes(rng, 100)
        pts = boxes.centers()[:20].copy()
        bvh = BVH(boxes)
        boxes.degenerate(np.arange(20))
        bvh.refit()
        rays = Rays.point_rays(pts)
        stats = TraversalStats(20)
        out = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        hit_prims = set(out.prims[out.aabb_hit].tolist())
        assert not (hit_prims & set(range(20)))


@given(st.integers(1, 60), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_traversal_completeness_property(n, leaf_size, seed):
    """For arbitrary box sets and leaf sizes, the BVH must surface every
    true point containment as an aabb_hit candidate."""
    r = np.random.default_rng(seed)
    boxes = random_boxes(r, n)
    pts = random_points(r, 20)
    bvh = BVH(boxes, leaf_size=leaf_size)
    rays = Rays.point_rays(pts)
    stats = TraversalStats(20)
    out = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
    got = set(zip(out.rows.tolist(), out.prims.tolist()))
    oracle_r, oracle_p = join_contains_point(boxes, pts)
    for pr, pt in zip(oracle_r.tolist(), oracle_p.tolist()):
        assert (pt, pr) in got
