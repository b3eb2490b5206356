"""The frontier kernel against a frozen copy of the loops it replaced.

``_ref_*`` below are verbatim copies of the per-structure frontier loops
and the reduce-based slab test as they stood before
:mod:`repro.rtcore.kernel` existed. Every traversal must reproduce them
exactly: candidate rows and prims in order and every per-ray counter.
The loops also compute each candidate's ``t_enter`` and ``aabb_hit``;
:class:`TestPipelineHitParameters` holds the shader pipeline, which
derives them, to those values bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.lbvh import lbvh_launch
from repro.geometry.boxes import Boxes
from repro.geometry.ray import Rays, ray_aabb_interval
from repro.rtcore import kernel
from repro.rtcore.bvh import BVH
from repro.rtcore.gas import GeometryAS
from repro.rtcore.ias import InstanceAS
from repro.rtcore.pipeline import Pipeline, ShaderPrograms
from repro.rtcore.sah import SAHBVH
from repro.rtcore.stats import TraversalStats

from tests.conftest import random_boxes

# -- frozen reference ----------------------------------------------------------


def _ref_ray_aabb_interval(origins, dirs, tmins, tmaxs, box_mins, box_maxs):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / dirs
        t1 = (box_mins - origins) * inv
        t2 = (box_maxs - origins) * inv
    near = np.fmin(t1, t2)
    far = np.fmax(t1, t2)
    parallel = dirs == 0.0
    if parallel.any():
        inside = (box_mins <= origins) & (origins <= box_maxs)
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
    t_enter = np.fmax.reduce(near, axis=-1)
    t_exit = np.fmin.reduce(far, axis=-1)
    live = np.all(box_mins <= box_maxs, axis=-1)
    hit = (
        live
        & (t_enter <= t_exit)
        & (t_exit >= tmins)
        & (t_enter <= tmaxs)
        & (t_exit >= 0.0)
    )
    return t_enter, t_exit, hit


def _ref_concat(parts):
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=bool),
        )
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(4))


def _ref_bvh_traverse(bvh, origins, dirs, tmins, tmaxs, stats, stat_ids=None):
    m = origins.shape[0]
    if stat_ids is None:
        stat_ids = np.arange(m, dtype=np.int64)
    if m == 0 or bvh.n_prims == 0:
        return _ref_concat([])
    rows = np.arange(m, dtype=np.int64)
    nodes = np.zeros(m, dtype=np.int64)
    first_leaf = bvh.n_leaves - 1
    out = []
    while len(rows):
        t_enter, _t_exit, hit = _ref_ray_aabb_interval(
            origins[rows], dirs[rows], tmins[rows], tmaxs[rows],
            bvh.node_mins[nodes], bvh.node_maxs[nodes],
        )
        stats.count_nodes(stat_ids[rows])
        rows = rows[hit]
        nodes = nodes[hit]
        t_enter = t_enter[hit]
        at_leaf = nodes >= first_leaf
        if at_leaf.any():
            l_rows = rows[at_leaf]
            leaves = nodes[at_leaf] - first_leaf
            te = t_enter[at_leaf]
            if bvh.leaf_size == 1:
                prims = bvh.leaf_prims[leaves, 0]
                valid = prims >= 0
                l_rows, prims, te = l_rows[valid], prims[valid], te[valid]
                stats.count_is(stat_ids[l_rows])
                out.append((l_rows, prims, te, np.ones(len(l_rows), dtype=bool)))
            else:
                prims = bvh.leaf_prims[leaves].reshape(-1)
                l_rows = np.repeat(l_rows, bvh.leaf_size)
                valid = prims >= 0
                l_rows, prims = l_rows[valid], prims[valid]
                stats.count_is(stat_ids[l_rows])
                te, _tx, phit = _ref_ray_aabb_interval(
                    origins[l_rows], dirs[l_rows], tmins[l_rows], tmaxs[l_rows],
                    bvh.boxes.mins[prims], bvh.boxes.maxs[prims],
                )
                out.append((l_rows, prims, te, phit))
        inner = ~at_leaf
        rows = np.repeat(rows[inner], 2)
        nodes = nodes[inner]
        children = np.empty(2 * len(nodes), dtype=np.int64)
        children[0::2] = 2 * nodes + 1
        children[1::2] = 2 * nodes + 2
        nodes = children
    return _ref_concat(out)


def _ref_sah_traverse(bvh, origins, dirs, tmins, tmaxs, stats, stat_ids=None):
    m = origins.shape[0]
    if stat_ids is None:
        stat_ids = np.arange(m, dtype=np.int64)
    if m == 0 or bvh.n_prims == 0:
        return _ref_concat([])
    rows = np.arange(m, dtype=np.int64)
    nodes = np.zeros(m, dtype=np.int64)
    out = []
    while len(rows):
        t_enter, _t_exit, hit = _ref_ray_aabb_interval(
            origins[rows], dirs[rows], tmins[rows], tmaxs[rows],
            bvh.node_mins[nodes], bvh.node_maxs[nodes],
        )
        stats.count_nodes(stat_ids[rows])
        rows, nodes = rows[hit], nodes[hit]
        at_leaf = bvh.left[nodes] == -1
        if at_leaf.any():
            l_rows = rows[at_leaf]
            l_nodes = nodes[at_leaf]
            sizes = bvh.count[l_nodes]
            sc = np.concatenate([[0], np.cumsum(sizes[:-1])])
            offs = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(sc, sizes)
            prim = bvh.perm[np.repeat(bvh.start[l_nodes], sizes) + offs]
            c_rows = np.repeat(l_rows, sizes)
            stats.count_is(stat_ids[c_rows])
            te, _tx, phit = _ref_ray_aabb_interval(
                origins[c_rows], dirs[c_rows], tmins[c_rows], tmaxs[c_rows],
                bvh.boxes.mins[prim], bvh.boxes.maxs[prim],
            )
            out.append((c_rows, prim, te, phit))
        inner = ~at_leaf
        rows = np.repeat(rows[inner], 2)
        kids = np.empty(2 * int(inner.sum()), dtype=np.int64)
        kids[0::2] = bvh.left[nodes[inner]]
        kids[1::2] = bvh.right[nodes[inner]]
        nodes = kids
    return _ref_concat(out)


def _box_launch(bvh, q, stats):
    """The LBVH's box-overlap launch over one tree: ``(rows, prims)``."""
    prims, rows = lbvh_launch([bvh], [0], "intersects", q, bvh.boxes.mins, bvh.boxes.maxs, stats)
    return rows, prims


def _ref_traverse_boxes(bvh, q_mins, q_maxs, stats, stat_ids=None):
    m = q_mins.shape[0]
    if stat_ids is None:
        stat_ids = np.arange(m, dtype=np.int64)
    e = np.empty(0, dtype=np.int64)
    if m == 0 or bvh.n_prims == 0:
        return e, e.copy()
    rows = np.arange(m, dtype=np.int64)
    nodes = np.zeros(m, dtype=np.int64)
    first_leaf = bvh.n_leaves - 1
    out_rows, out_prims = [], []
    while len(rows):
        nm = bvh.node_mins[nodes]
        nx = bvh.node_maxs[nodes]
        hit = np.all((nm <= q_maxs[rows]) & (nx >= q_mins[rows]) & (nm <= nx), axis=-1)
        stats.count_nodes(stat_ids[rows])
        rows, nodes = rows[hit], nodes[hit]
        at_leaf = nodes >= first_leaf
        if at_leaf.any():
            l_rows = rows[at_leaf]
            leaves = nodes[at_leaf] - first_leaf
            prims = bvh.leaf_prims[leaves].reshape(-1)
            l_rows = np.repeat(l_rows, bvh.leaf_size)
            valid = prims >= 0
            l_rows, prims = l_rows[valid], prims[valid]
            stats.count_is(stat_ids[l_rows])
            pm = bvh.boxes.mins[prims]
            px = bvh.boxes.maxs[prims]
            ok = np.all(
                (pm <= q_maxs[l_rows]) & (px >= q_mins[l_rows]) & (pm <= px), axis=-1
            )
            out_rows.append(l_rows[ok])
            out_prims.append(prims[ok])
        inner = ~at_leaf
        rows = np.repeat(rows[inner], 2)
        nodes = nodes[inner]
        children = np.empty(2 * len(nodes), dtype=np.int64)
        children[0::2] = 2 * nodes + 1
        children[1::2] = 2 * nodes + 2
        nodes = children
    if not out_rows:
        return e, e.copy()
    return np.concatenate(out_rows), np.concatenate(out_prims)


# -- inputs --------------------------------------------------------------------


def _boxes(rng, n, d, dtype, n_deleted):
    boxes = random_boxes(rng, n, d=d, dtype=dtype)
    if n_deleted:
        boxes.degenerate(rng.choice(n, size=n_deleted, replace=False))
    return boxes


def _rays(rng, boxes, kind):
    """Ray batches that exercise every slab-test branch."""
    n, d = boxes.mins.shape
    dtype = boxes.dtype
    live = np.nonzero(~boxes.is_degenerate())[0]
    if kind == "point":
        # Point rays (every axis but x is parallel), half of them on a
        # primitive corner so origins sit exactly on slab boundaries.
        pts = rng.random((60, d)) * 100.0
        pick = rng.choice(live, size=30)
        pts[:30] = boxes.mins[pick]
        pts[15:30, 1] = boxes.maxs[pick[15:], 1]
        return Rays.point_rays(pts.astype(dtype))
    if kind == "segment":
        a = rng.random((60, d)) * 100.0
        b = a + (rng.random((60, d)) - 0.5) * 40.0
        return Rays.segment_rays(a.astype(dtype), b.astype(dtype))
    # Mixed: some rays with zero components on random axes (partial
    # parallel masks), origins snapped onto slab boundaries, -0.0 dirs.
    o = rng.random((80, d)) * 100.0
    dirs = (rng.random((80, d)) - 0.5) * 30.0
    dirs[rng.random((80, d)) < 0.35] = 0.0
    dirs[::7, 0] = -0.0
    pick = rng.choice(live, size=80)
    snap = rng.random((80, d)) < 0.4
    o = np.where(snap, boxes.mins[pick], o)
    snap_hi = rng.random((80, d)) < 0.2
    o = np.where(snap_hi, boxes.maxs[pick], o)
    tmins = np.where(rng.random(80) < 0.2, 0.5, 0.0)
    return Rays(o.astype(dtype), dirs.astype(dtype), tmins=tmins, tmaxs=1.0)


def _same_bits(a, b):
    assert a.dtype == b.dtype, (a.dtype, b.dtype)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _check(cand, ref, stats, ref_stats):
    rows, prims, _t_enter, _aabb_hit = ref
    assert np.array_equal(cand.rows, rows)
    assert np.array_equal(cand.prims, prims)
    for name in ("nodes_visited", "is_invocations", "results_emitted"):
        assert np.array_equal(getattr(stats, name), getattr(ref_stats, name))


CASES = [
    pytest.param(BVH, 1, id="bvh-leaf1"),
    pytest.param(BVH, 4, id="bvh-leaf4"),
    pytest.param(SAHBVH, 4, id="sah-leaf4"),
    pytest.param(SAHBVH, 1, id="sah-leaf1"),
]


def _reference(cls):
    return _ref_bvh_traverse if cls is BVH else _ref_sah_traverse


# -- tests ---------------------------------------------------------------------


class TestSlabTest:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["point", "segment", "mixed"])
    def test_aligned_pairs_bit_identical(self, rng, dtype, d, kind):
        boxes = _boxes(rng, 200, d, dtype, n_deleted=20)
        rays = _rays(rng, boxes, kind)
        prims = rng.integers(0, len(boxes), size=len(rays))
        args = (
            rays.origins, rays.dirs, rays.tmins, rays.tmaxs,
            boxes.mins[prims], boxes.maxs[prims],
        )
        for got, want in zip(ray_aabb_interval(*args), _ref_ray_aabb_interval(*args)):
            _same_bits(got, want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_broadcast_shapes_bit_identical(self, rng, d):
        # The (segments, 1, d) x (1, boxes, d) shape of the brute-force join.
        boxes = _boxes(rng, 50, d, np.float64, n_deleted=5)
        rays = _rays(rng, boxes, "mixed")
        z = np.zeros((len(rays), 1))
        args = (
            rays.origins[:, None, :], rays.dirs[:, None, :], z, z + 1.0,
            boxes.mins[None, :, :], boxes.maxs[None, :, :],
        )
        for got, want in zip(ray_aabb_interval(*args), _ref_ray_aabb_interval(*args)):
            _same_bits(got, want)

    def test_single_pair_scalars(self):
        o = np.array([1.0, 1.0])
        for dvec in (np.array([0.0, 1.0]), np.array([1.0, 1.0])):
            args = (o, dvec, 0.0, 1.0, np.array([1.0, 0.0]), np.array([2.0, 3.0]))
            got = ray_aabb_interval(*args)
            want = _ref_ray_aabb_interval(*args)
            for g, w in zip(got, want):
                assert np.asarray(g).dtype == np.asarray(w).dtype
                assert np.array_equal(g, w)


class TestRayTraversal:
    @pytest.mark.parametrize("cls,leaf_size", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["point", "segment", "mixed"])
    def test_matches_reference(self, rng, cls, leaf_size, dtype, d, kind):
        # 301 prims: padding leaves in the heap tree; 30 deleted (+-inf).
        boxes = _boxes(rng, 301, d, dtype, n_deleted=30)
        bvh = cls(boxes, leaf_size=leaf_size)
        rays = _rays(rng, boxes, kind)
        args = (rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
        stats, ref_stats = TraversalStats(len(rays)), TraversalStats(len(rays))
        cand = bvh.traverse(*args, stats)
        ref = _reference(cls)(bvh, *args, ref_stats)
        assert len(cand) > 0
        _check(cand, ref, stats, ref_stats)

    @pytest.mark.parametrize("cls,leaf_size", CASES)
    @pytest.mark.parametrize("kind", ["point", "mixed"])
    def test_large_launch(self, rng, cls, leaf_size, kind):
        """Thousands of rays: sibling blocks wide enough for the
        column-write compaction (small blocks use ``hit.T.nonzero()``)."""
        boxes = _boxes(rng, 301, 2, np.float32, n_deleted=30)
        bvh = cls(boxes, leaf_size=leaf_size)
        parts = [_rays(rng, boxes, kind) for _ in range(40)]
        rays = Rays(
            np.concatenate([r.origins for r in parts]),
            np.concatenate([r.dirs for r in parts]),
            np.concatenate([r.tmins for r in parts]),
            np.concatenate([r.tmaxs for r in parts]),
        )
        assert len(rays) >= 2 * kernel._SMALL_BLOCK
        args = (rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
        stats, ref_stats = TraversalStats(len(rays)), TraversalStats(len(rays))
        cand = bvh.traverse(*args, stats)
        _check(cand, _reference(cls)(bvh, *args, ref_stats), stats, ref_stats)

    @pytest.mark.parametrize("cls,leaf_size", CASES)
    def test_empty_batch_and_empty_structure(self, rng, cls, leaf_size):
        d = 2
        empty_rays = Rays(np.empty((0, d)), np.empty((0, d)))
        structures = [
            cls(_boxes(rng, 40, d, np.float64, n_deleted=0), leaf_size=leaf_size),
            cls(Boxes(np.empty((0, d)), np.empty((0, d))), leaf_size=leaf_size),
        ]
        rays = _rays(rng, _boxes(rng, 40, d, np.float64, 0), "segment")
        for bvh, r in ((structures[0], empty_rays), (structures[1], rays)):
            args = (r.origins, r.dirs, r.tmins, r.tmaxs)
            stats, ref_stats = TraversalStats(len(r)), TraversalStats(len(r))
            cand = bvh.traverse(*args, stats)
            _check(cand, _reference(cls)(bvh, *args, ref_stats), stats, ref_stats)

    @pytest.mark.parametrize("cls,leaf_size", CASES)
    def test_all_deleted(self, rng, cls, leaf_size):
        boxes = _boxes(rng, 20, 2, np.float32, n_deleted=20)
        bvh = cls(boxes, leaf_size=leaf_size)
        rays = _rays(rng, _boxes(rng, 20, 2, np.float32, 0), "mixed")
        args = (rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
        stats, ref_stats = TraversalStats(len(rays)), TraversalStats(len(rays))
        cand = bvh.traverse(*args, stats)
        _check(cand, _reference(cls)(bvh, *args, ref_stats), stats, ref_stats)
        assert len(cand) == 0

    @pytest.mark.parametrize("cls,leaf_size", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "interval", ["both-0-1", "both-0.5-0.75", "tmin-only", "tmax-only"]
    )
    def test_uniform_intervals(self, rng, cls, leaf_size, dtype, interval):
        """Launches whose ``tmins`` (or ``tmaxs``) are all equal compare
        against one broadcast value; mixed intervals keep per-row arrays."""
        boxes = _boxes(rng, 301, 2, dtype, n_deleted=30)
        bvh = cls(boxes, leaf_size=leaf_size)
        rays = _rays(rng, boxes, "mixed")
        tmins, tmaxs = {
            "both-0-1": (0.0, 1.0),
            "both-0.5-0.75": (0.5, 0.75),
            "tmin-only": (0.25, rng.random(len(rays)) + 0.5),
            "tmax-only": (rng.random(len(rays)) * 0.5, 2.0),
        }[interval]
        rays = Rays(rays.origins, rays.dirs, tmins=tmins, tmaxs=tmaxs)
        slab = kernel.RaySlab(rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
        assert isinstance(slab.tmins, np.ndarray) == (interval == "tmax-only")
        assert isinstance(slab.tmaxs, np.ndarray) == (interval == "tmin-only")
        args = (rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
        stats, ref_stats = TraversalStats(len(rays)), TraversalStats(len(rays))
        cand = bvh.traverse(*args, stats)
        assert len(cand) > 0
        _check(cand, _reference(cls)(bvh, *args, ref_stats), stats, ref_stats)

    @pytest.mark.parametrize("cls,leaf_size", CASES)
    @pytest.mark.parametrize("kind", ["point", "segment", "mixed"])
    def test_root_is_the_leaf(self, rng, cls, leaf_size, kind):
        """One primitive: the root is the only node and the only leaf."""
        boxes = _boxes(rng, 1, 2, np.float64, n_deleted=0)
        bvh = cls(boxes, leaf_size=leaf_size)
        assert bvh.n_nodes == 1
        rays = _rays(rng, boxes, kind)
        args = (rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
        stats, ref_stats = TraversalStats(len(rays)), TraversalStats(len(rays))
        cand = bvh.traverse(*args, stats)
        if kind == "point":
            assert len(cand) > 0
        _check(cand, _reference(cls)(bvh, *args, ref_stats), stats, ref_stats)
        assert (stats.nodes_visited == 1).all()

    @pytest.mark.parametrize("cls,leaf_size", CASES)
    def test_live_parent_of_two_dead_children(self, rng, cls, leaf_size):
        """Each primitive is inverted on a different axis, so both are
        dead while their union (the root) is live: hit parents whose
        sibling pair is all dead end the descent with no candidate."""
        boxes = Boxes([[0.0, 5.0], [5.0, 0.0]], [[1.0, 4.0], [4.0, 1.0]])
        bvh = cls(boxes, leaf_size=leaf_size)
        assert bvh._live[0] and not (boxes.mins <= boxes.maxs).all(axis=1).any()
        pts = np.concatenate([rng.random((30, 2)) * 4.0, rng.random((10, 2)) * 4.0 + 6.0])
        rays = Rays.point_rays(pts)
        args = (rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
        stats, ref_stats = TraversalStats(len(rays)), TraversalStats(len(rays))
        cand = bvh.traverse(*args, stats)
        ref = _reference(cls)(bvh, *args, ref_stats)
        _check(cand, ref, stats, ref_stats)
        assert not ref[3].any()
        # Inside the root: one visit, plus the dead pair when the root is
        # inner (with a leaf root both primitives become IS candidates).
        inside = 3 if bvh.n_nodes > 1 else 1
        assert (stats.nodes_visited[:30] == inside).all()
        assert (stats.nodes_visited[30:] == 1).all()

    @pytest.mark.parametrize("cls,leaf_size", CASES)
    def test_every_ray_misses_the_root(self, rng, cls, leaf_size):
        """The frontier empties after the root test: one visit per ray."""
        bvh = cls(_boxes(rng, 60, 2, np.float64, n_deleted=5), leaf_size=leaf_size)
        rays = Rays.segment_rays(rng.random((25, 2)) + 500.0, rng.random((25, 2)) + 600.0)
        args = (rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
        stats, ref_stats = TraversalStats(len(rays)), TraversalStats(len(rays))
        cand = bvh.traverse(*args, stats)
        _check(cand, _reference(cls)(bvh, *args, ref_stats), stats, ref_stats)
        assert len(cand) == 0 and (stats.nodes_visited == 1).all()


class TestBoxTraversal:
    @pytest.mark.parametrize("leaf_size", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_reference(self, rng, leaf_size, dtype, d):
        boxes = _boxes(rng, 301, d, dtype, n_deleted=30)
        bvh = BVH(boxes, leaf_size=leaf_size)
        q = _boxes(rng, 90, d, dtype, n_deleted=0)
        # Queries touching primitives exactly on a face.
        pick = rng.choice(np.nonzero(~boxes.is_degenerate())[0], size=10)
        q.mins[:10, 0] = boxes.maxs[pick, 0]
        stats, ref_stats = TraversalStats(len(q)), TraversalStats(len(q))
        rows, prims = _box_launch(bvh, q, stats)
        r_rows, r_prims = _ref_traverse_boxes(bvh, q.mins, q.maxs, ref_stats)
        assert len(rows) > 0
        assert np.array_equal(rows, r_rows) and np.array_equal(prims, r_prims)
        assert rows.dtype == r_rows.dtype and prims.dtype == r_prims.dtype
        assert np.array_equal(stats.nodes_visited, ref_stats.nodes_visited)
        assert np.array_equal(stats.is_invocations, ref_stats.is_invocations)

    def test_empty(self, rng):
        bvh = BVH(_boxes(rng, 10, 2, np.float64, 0))
        e = np.empty((0, 2))
        rows, prims = _box_launch(bvh, Boxes(e, e), TraversalStats(0))
        assert len(rows) == len(prims) == 0 and rows.dtype == np.int64

    @pytest.mark.parametrize("leaf_size", [1, 4])
    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_fully_deleted_tree(self, rng, leaf_size, n):
        bvh = BVH(_boxes(rng, n, 2, np.float32, n_deleted=n), leaf_size=leaf_size)
        assert not bvh.node_live.any()
        q = _boxes(rng, 40, 2, np.float32, n_deleted=0)
        stats, ref_stats = TraversalStats(len(q)), TraversalStats(len(q))
        rows, prims = _box_launch(bvh, q, stats)
        r_rows, r_prims = _ref_traverse_boxes(bvh, q.mins, q.maxs, ref_stats)
        assert len(rows) == len(r_rows) == 0 and len(prims) == len(r_prims) == 0
        assert np.array_equal(stats.nodes_visited, ref_stats.nodes_visited)
        assert (stats.nodes_visited == 1).all()

    @pytest.mark.parametrize("leaf_size", [1, 4])
    def test_live_parent_of_two_dead_children(self, leaf_size):
        boxes = Boxes([[0.0, 5.0], [5.0, 0.0]], [[1.0, 4.0], [4.0, 1.0]])
        bvh = BVH(boxes, leaf_size=leaf_size)
        q = Boxes([[0.5, 0.5], [2.0, 2.0], [9.0, 9.0]], [[3.5, 3.5], [2.5, 2.5], [9.5, 9.5]])
        stats, ref_stats = TraversalStats(len(q)), TraversalStats(len(q))
        rows, prims = _box_launch(bvh, q, stats)
        r_rows, r_prims = _ref_traverse_boxes(bvh, q.mins, q.maxs, ref_stats)
        assert len(rows) == len(r_rows) == 0
        assert np.array_equal(stats.nodes_visited, ref_stats.nodes_visited)
        assert np.array_equal(stats.is_invocations, ref_stats.is_invocations)


# -- the shader pipeline's hit parameters --------------------------------------

PIPELINE_BUILDS = [
    pytest.param("fast_build", 1, id="fast_build-leaf1"),
    pytest.param("fast_build", 2, id="fast_build-leaf2"),
    pytest.param("fast_build", 4, id="fast_build-leaf4"),
    pytest.param("fast_trace", 2, id="fast_trace"),
]


def _recorded_is_context(traversable, rays):
    """The IS context a pipeline launch of ``rays`` hands its shader."""
    seen = []

    def record(ctx):
        seen.append(ctx)
        return ctx.aabb_hit

    Pipeline(traversable, ShaderPrograms(intersection=record)).launch(rays)
    [ctx] = seen
    return ctx


class TestPipelineHitParameters:
    """The kernel computes no ``t``; the pipeline derives ``t_enter`` and
    ``aabb_hit`` per candidate. Both must equal what the frozen loops
    computed during traversal: ``t_enter`` bit for bit as float64, in
    the dtype :func:`ray_aabb_interval` gives over the candidate pairs
    (float64 when any candidate's ray has a zero direction component)."""

    @pytest.mark.parametrize("builder,leaf_size", PIPELINE_BUILDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["point", "segment", "mixed"])
    @pytest.mark.parametrize("scene", ["gas", "ias"])
    def test_matches_reference(self, rng, scene, kind, d, dtype, builder, leaf_size):
        # The IAS: four instances, one empty, ids out of order.
        sizes = [301] if scene == "gas" else [120, 0, 301, 60]
        gases = [
            GeometryAS(
                _boxes(rng, n, d, dtype, n_deleted=n // 10) if n else Boxes.empty(d, dtype),
                leaf_size=leaf_size,
                builder=builder,
            )
            for n in sizes
        ]
        ids = [0] if scene == "gas" else [9 - 2 * i for i in range(len(gases))]
        if scene == "gas":
            traversable = gases[0]
        else:
            traversable = InstanceAS()
            for gas, iid in zip(gases, ids):
                traversable.add_instance(gas, instance_id=iid)
        rays = _rays(rng, max(gases, key=len).boxes, kind)
        args = (rays.origins, rays.dirs, rays.tmins, rays.tmaxs)

        parts = []
        for gas, iid in zip(gases, ids):
            if len(gas):
                rows, prims, t, hit = _reference(type(gas.bvh))(
                    gas.bvh, *args, TraversalStats(len(rays))
                )
                parts.append((rows, prims, np.full(len(rows), iid), t, hit,
                              gas.boxes.mins[prims], gas.boxes.maxs[prims]))
        rows, prims, iids, t, hit, lo, hi = (np.concatenate(col) for col in zip(*parts))

        ctx = _recorded_is_context(traversable, rays)
        assert len(ctx) > 0
        assert np.array_equal(ctx.ray_rows, rows)
        assert np.array_equal(ctx.prim_ids, prims)
        assert np.array_equal(ctx.instance_ids, iids)
        assert np.array_equal(ctx.aabb_hit, hit)
        _same_bits(ctx.t_enter.astype(np.float64), t.astype(np.float64))
        interval_t = ray_aabb_interval(
            rays.origins[rows], rays.dirs[rows], rays.tmins[rows], rays.tmaxs[rows], lo, hi
        )[0]
        assert ctx.t_enter.dtype == interval_t.dtype
        parallel = (rays.dirs[rows] == 0.0).any()
        assert ctx.t_enter.dtype == (np.float64 if parallel else dtype)
