"""The cached node liveness never goes stale.

BVH and SAHBVH cache ``all(node_min <= node_max)`` per node whenever
their node boxes change, and the traversal kernel reads only the cache.
After every structural step — refit (update), rebuild, delete by
degeneration, copy-on-write fork and churn tombstones — the cache
must equal a fresh computation, and queries must equal those on a
freshly built structure.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.churn import ChurnIndex
from repro.core.index import Predicate, RTSIndex
from repro.geometry.boxes import Boxes
from repro.geometry.ray import Rays, ray_aabb_hit
from repro.rtcore.bvh import BVH
from repro.rtcore.sah import SAHBVH
from repro.rtcore.stats import TraversalStats

from tests.conftest import aabb_hit_pairs, assert_pairs_equal, random_boxes, random_points

STRUCTURES = [
    pytest.param(BVH, 1, id="bvh-leaf1"),
    pytest.param(BVH, 4, id="bvh-leaf4"),
    pytest.param(SAHBVH, 2, id="sah-leaf2"),
]


def _assert_cache_fresh(bvh):
    fresh = (bvh.node_mins <= bvh.node_maxs).all(axis=1)
    assert np.array_equal(bvh._live, fresh)


def _hit_pairs(bvh, rays):
    """Sorted (ray, prim) pairs whose AABB the ray meets."""
    stats = TraversalStats(len(rays))
    cand = bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
    rows, prims = aabb_hit_pairs(cand, bvh.boxes, rays)
    order = np.lexsort((prims, rows))
    return rows[order], prims[order]


def _oracle_pairs(boxes, rays):
    hit = ray_aabb_hit(
        rays.origins[:, None, :], rays.dirs[:, None, :],
        rays.tmins[:, None], rays.tmaxs[:, None],
        boxes.mins[None, :, :], boxes.maxs[None, :, :],
    )
    return np.nonzero(hit)


def _assert_matches_oracle(bvh, boxes, rays):
    got = _hit_pairs(bvh, rays)
    want = _oracle_pairs(boxes, rays)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _rays(rng, n=120):
    a = random_points(rng, n)
    b = a + (rng.random((n, 2)) - 0.5) * 30.0
    return Rays.segment_rays(a, b)


class TestStructureCache:
    @pytest.mark.parametrize("cls,leaf_size", STRUCTURES)
    def test_refit_after_update_and_delete(self, rng, cls, leaf_size):
        boxes = random_boxes(rng, 200)
        bvh = cls(boxes, leaf_size=leaf_size)
        rays = _rays(rng)
        _assert_matches_oracle(bvh, boxes, rays)
        # Delete by degeneration: whole subtrees die.
        boxes.degenerate(np.arange(0, 200, 2))
        bvh.refit()
        _assert_cache_fresh(bvh)
        assert not bvh._live.all()
        _assert_matches_oracle(bvh, boxes, rays)
        # Update resurrects them elsewhere: dead nodes come back to life.
        boxes.overwrite(np.arange(0, 200, 2), random_boxes(rng, 100))
        bvh.refit()
        _assert_cache_fresh(bvh)
        _assert_matches_oracle(bvh, boxes, rays)

    @pytest.mark.parametrize("cls,leaf_size", STRUCTURES)
    def test_rebuild(self, rng, cls, leaf_size):
        boxes = random_boxes(rng, 150)
        bvh = cls(boxes, leaf_size=leaf_size)
        boxes.degenerate(np.arange(40))
        boxes.overwrite(np.arange(40, 80), random_boxes(rng, 40, domain=300.0))
        bvh.rebuild()
        _assert_cache_fresh(bvh)
        fresh = cls(Boxes(boxes.mins.copy(), boxes.maxs.copy()), leaf_size=leaf_size)
        rays = _rays(rng)
        assert all(
            np.array_equal(a, b) for a, b in zip(_hit_pairs(bvh, rays), _hit_pairs(fresh, rays))
        )
        _assert_matches_oracle(bvh, boxes, rays)

    @pytest.mark.parametrize("cls,leaf_size", STRUCTURES)
    def test_deepcopy_then_refit_leaves_original_alone(self, rng, cls, leaf_size):
        """The copy-on-write fork path: the clone refits, the original's
        cache (and answers) stay those of the original boxes."""
        boxes = random_boxes(rng, 120)
        bvh = cls(boxes, leaf_size=leaf_size)
        live_before = bvh._live.copy()
        clone = copy.deepcopy(bvh)
        clone.boxes.degenerate(np.arange(60))
        clone.refit()
        _assert_cache_fresh(clone)
        _assert_cache_fresh(bvh)
        assert np.array_equal(bvh._live, live_before)
        rays = _rays(rng)
        _assert_matches_oracle(bvh, boxes, rays)
        _assert_matches_oracle(clone, clone.boxes, rays)

    @pytest.mark.parametrize("cls,leaf_size", STRUCTURES)
    def test_traversal_never_writes_structure(self, rng, cls, leaf_size):
        """The kernel only reads node boxes and the cache, and the cache
        owns its memory: traversal leaves every structure array as built."""
        boxes = random_boxes(rng, 150)
        boxes.degenerate(np.arange(0, 150, 3))
        bvh = cls(boxes, leaf_size=leaf_size)
        arrays = {
            name: value for name, value in vars(bvh).items()
            if isinstance(value, np.ndarray)
        }
        assert {"node_lo", "node_hi", "node_live"} <= set(arrays)
        frozen = {name: arr.copy() for name, arr in arrays.items()}
        assert not np.shares_memory(bvh.node_live, bvh.node_lo)
        assert not np.shares_memory(bvh.node_live, bvh.node_hi)
        rays = _rays(rng)
        _assert_matches_oracle(bvh, boxes, rays)
        _assert_matches_oracle(bvh, boxes, rays)
        for name, arr in arrays.items():
            assert np.array_equal(arr, frozen[name]), name
        _assert_cache_fresh(bvh)


def _queries(rng):
    return [
        (Predicate.CONTAINS_POINT, random_points(rng, 150), None),
        (Predicate.RANGE_CONTAINS, random_boxes(rng, 40, max_extent=1.0), None),
        (Predicate.RANGE_INTERSECTS, random_boxes(rng, 40), 2),
    ]


class _Fresh:
    """A freshly built index over ``idx``'s live rectangles, answering
    in ``idx``'s global ids (query-major canonical order)."""

    def __init__(self, idx):
        b = idx.all_boxes()
        self.ids = np.nonzero(~b.is_degenerate())[0]
        self.index = RTSIndex(
            Boxes(b.mins[self.ids], b.maxs[self.ids]), dtype=np.float64, seed=1
        )

    def pairs(self, pred, payload, k):
        rects, queries = self.index.query(pred, payload, k=k).pairs()
        rects = self.ids[rects]
        order = np.lexsort((rects, queries))
        return rects[order], queries[order]


def _assert_same_answers(idx, ref, queries):
    """``ref`` is another index or a :class:`_Fresh` twin."""
    for pred, payload, k in queries:
        want = (
            ref.pairs(pred, payload, k) if isinstance(ref, _Fresh)
            else ref.query(pred, payload, k=k).pairs()
        )
        assert_pairs_equal(idx.query(pred, payload, k=k).pairs(), want, pred.value)


class TestIndexCache:
    @pytest.mark.parametrize("builder", ["fast_build", "fast_trace"])
    def test_update_delete_rebuild_sequence(self, rng, builder):
        kw = {"leaf_size": 2} if builder == "fast_trace" else {}
        idx = RTSIndex(
            random_boxes(rng, 400), dtype=np.float64, seed=1, builder=builder, **kw
        )
        idx.insert(random_boxes(rng, 60))
        queries = _queries(rng)
        steps = [
            lambda: idx.update(np.arange(0, 120, 3), random_boxes(rng, 40, domain=60.0)),
            lambda: idx.delete(np.arange(100, 300)),
            lambda: idx.update(np.arange(150, 170), random_boxes(rng, 20)),
            lambda: idx.rebuild(),
            lambda: idx.delete(np.arange(0, 460, 4)),
        ]
        for step in steps:
            step()
            for gas in idx._gases:
                _assert_cache_fresh(gas.bvh)
            _assert_same_answers(idx, _Fresh(idx), queries)

    def test_fork_mutation_keeps_parent_answers(self, rng):
        idx = RTSIndex(random_boxes(rng, 300), dtype=np.float64, seed=1)
        queries = _queries(rng)
        before = [idx.query(p, q, k=k).pairs() for p, q, k in queries]
        child = idx.fork()
        child.delete(np.arange(0, 300, 2))
        child.update(np.arange(1, 100, 2), random_boxes(rng, 50))
        _assert_same_answers(child, _Fresh(child), queries)
        for (p, q, k), want in zip(queries, before):
            assert_pairs_equal(idx.query(p, q, k=k).pairs(), want, p.value)

    @pytest.mark.parametrize("builder", ["fast_build", "fast_trace"])
    def test_served_snapshots_keep_fresh_caches(self, rng, builder):
        """Every epoch the service publishes (a copy-on-write fork plus
        one mutation) carries fresh caches and answers like a freshly
        built index, and earlier retained epochs keep their answers."""
        from repro.serve import ServiceConfig, SpatialQueryService

        kw = {"leaf_size": 2} if builder == "fast_trace" else {}
        idx = RTSIndex(
            random_boxes(rng, 300), dtype=np.float64, seed=1, builder=builder, **kw
        )
        queries = _queries(rng)
        steps = [
            lambda svc: svc.insert(random_boxes(rng, 40)),
            lambda svc: svc.delete(np.arange(0, 340, 5)),
            lambda svc: svc.update(np.arange(10, 40), random_boxes(rng, 30, domain=50.0)),
        ]
        with SpatialQueryService(
            idx, ServiceConfig(planner=None), retain_snapshots=True
        ) as svc:
            history = []
            for step in steps:
                step(svc)
                snap = svc.snapshot()
                for gas in snap._gases:
                    _assert_cache_fresh(gas.bvh)
                _assert_same_answers(snap, _Fresh(snap), queries)
                history.append(
                    (snap.epoch, [snap.query(p, q, k=k).pairs() for p, q, k in queries])
                )
            for epoch, answers in history:
                snap = svc.snapshot_at(epoch)
                for (p, q, k), want in zip(queries, answers):
                    assert_pairs_equal(snap.query(p, q, k=k).pairs(), want, p.value)

    def test_churn_tombstones(self, rng):
        """Tombstones rewrite primitive coordinates without a main refit:
        the main GAS's cache must keep describing its (unchanged) node
        boxes, and answers must match a plain index replaying the ops."""
        data = random_boxes(rng, 300)
        churn = ChurnIndex(Boxes(data.mins.copy(), data.maxs.copy()), dtype=np.float64, seed=5)
        mirror = RTSIndex(Boxes(data.mins.copy(), data.maxs.copy()), dtype=np.float64, seed=5)
        main = churn._gases[0].bvh
        live_before = main._live.copy()
        queries = _queries(rng)
        for ix in (churn, mirror):
            ix.delete(np.arange(0, 300, 3))
        new = random_boxes(rng, 30)
        for ix in (churn, mirror):
            ix.update(np.arange(1, 90, 3), new)
        assert churn._n_tombstones > 0
        assert np.array_equal(main._live, live_before)
        _assert_cache_fresh(main)
        _assert_same_answers(churn, mirror, queries)
        churn.compact()
        for gas in churn._gases:
            _assert_cache_fresh(gas.bvh)
        _assert_same_answers(churn, mirror, queries)
