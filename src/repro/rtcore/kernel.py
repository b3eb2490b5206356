"""The frontier traversal kernel every rtcore structure runs.

A launch descends a BVH as a frontier of *hit inner nodes*: the root is
tested against every ray, and each later step tests both children of
every hit inner node as one ``(2, P)`` block (row 0 the left child, row
1 the right, one column per ``(ray, parent)`` pair). Leaf hits become
per-primitive IS candidates (:class:`Candidates`), inner hits the next
step's parents. The per-ray node visit and IS counts recorded in
:class:`~repro.rtcore.stats.TraversalStats` are exactly what each
hardware thread would perform under the single-ray programming model:
every tested pair adds two node visits to its ray.

A launch may hold several structures (the instances of an IAS). They
descend in lockstep as *one* frontier: the root step tests every
structure's root as one ``(n, m)`` block, and each later step
concatenates the child pairs of every structure's frontier segment
into one block, so a level runs one node test however many structures
the launch holds. Counting is unchanged (every ray still counts one
root visit per structure, as a linear scan of the top level), and
candidates come out structure by structure, exactly as separate
launches concatenated. A one-structure launch pays no concatenation.

:func:`traverse` is parameterised by

- the *topologies* — :class:`HeapTopology` for the implicit complete tree
  of :class:`~repro.rtcore.bvh.BVH` (children ``2i+1``/``2i+2``, a fixed
  leaf-slot table) or :class:`ExplicitTopology` for the
  ``left``/``right``/``start``/``count`` arrays of
  :class:`~repro.rtcore.sah.SAHBVH`;
- the *node test* — :class:`RaySlab` (the RT core's ray-AABB slab test)
  or :class:`BoxOverlap` (software box-box traversal, which backs the
  LBVH baseline).

:meth:`PairMajorNodes.traverse` is the one-structure ray launch of both
BVH layouts: it runs :func:`traverse` over the structure's topology
with a :class:`RaySlab` test and, when traced, records the
``bvh.traverse`` span; :meth:`~repro.rtcore.ias.InstanceAS.traverse`
runs it over every instance's topology at once. :class:`Candidates` is
what every launch returns, an IAS launch included (with its
``instance_ids`` column set).

Layout: both structures number their nodes in sibling pairs (pair *j*
holds nodes ``2j+1``/``2j+2``; node 0 is the root) and store node bounds
*pair-major* (:class:`PairMajorNodes`): a lower- and an upper-bound
buffer, each holding per axis a contiguous ``(2, n_pairs)`` block of
left then right children, then the root. A step gathers every parent's
two children with one ``take`` per bound into contiguous ``(d, 2, P)``
blocks.
That is the one stored copy; the ``(n_nodes, d)``
``node_mins``/``node_maxs`` are derived on demand. Node liveness
(``min <= max`` on every axis) is stored in the same order and refreshed
whenever the node boxes change. The ray side is gathered once per parent
and broadcast over the pair axis, ``1/dir`` and the zero-direction masks
are taken once per launch, a launch whose ray intervals are all equal
compares against scalars, and the coordinate axes are unrolled into
elementwise ops under one ``np.errstate`` per launch. An axis every ray
is parallel to (the y axis of point and contains rays) is an inside mask
with no ``t`` products, and the others fold in place with plain
``np.fmax``/``np.fmin`` in the coordinate dtype, since only the hit mask
is read (:class:`RaySlab`).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.geometry.boxes import Boxes
from repro.geometry.ray import box_live, slab_hit
from repro.obs.tracer import counter_snapshot, record_delta
from repro.rtcore.stats import TraversalStats


class Candidates:
    """IS-shader candidates produced by one traversal: *potential* hits.

    ``rows`` indexes the launch's ray batch and ``prims`` are primitive
    ids local to the traversed structure. A candidate is every primitive
    of a leaf the ray (or query box) hit; with leaf sizes above one the
    ray need not meet the primitive's own box (OptiX invokes the IS
    shader on potential hits, footnote 2 of the paper), so the exact
    test is the caller's, as in LibRTS's IS shaders. The kernel computes
    no ``t``. ``instance_ids`` is what ``optixGetInstanceId`` returns
    for each candidate: an IAS launch sets it, a launch into one
    structure leaves it ``None`` (an empty result carries an empty
    column either way).
    """

    __slots__ = ("rows", "prims", "instance_ids")

    def __init__(self, rows, prims, instance_ids=None):
        self.rows = rows
        self.prims = prims
        self.instance_ids = instance_ids

    @classmethod
    def empty(cls) -> "Candidates":
        e = np.empty(0, dtype=np.int64)
        return cls(e, e.copy(), e.copy())

    @classmethod
    def concat(cls, parts: list["Candidates"]) -> "Candidates":
        """The non-empty ``parts`` in order (one is returned as is)."""
        parts = [p for p in parts if len(p.rows)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([p.rows for p in parts]),
            np.concatenate([p.prims for p in parts]),
            None if parts[0].instance_ids is None
            else np.concatenate([p.instance_ids for p in parts]),
        )

    def __len__(self) -> int:
        return len(self.rows)


# -- pair-major node storage ---------------------------------------------------


def _node_order(pairs: np.ndarray, root) -> np.ndarray:
    """Sibling blocks ``(..., 2, n_pairs)`` and the root ``(...)`` as one
    node-id ordered ``(n_nodes, ...)`` copy (pair *j* holds nodes
    ``2j+1``/``2j+2``)."""
    root = np.asarray(root)
    out = np.empty((2 * pairs.shape[-1] + 1,) + root.shape, dtype=pairs.dtype)
    out[0] = root
    out[1::2] = pairs[..., 0, :].T
    out[2::2] = pairs[..., 1, :].T
    return out


class PairMajorNodes:
    """Node bounds stored in the kernel's pair-major layout.

    Both structures number their nodes in sibling pairs (pair *j* holds
    nodes ``2j+1``/``2j+2``; node 0 is the root). ``node_lo`` and
    ``node_hi`` are flat buffers of the lower and upper bounds: the
    ``(d, 2, n_pairs)`` sibling blocks — per axis a contiguous
    ``(2, n_pairs)`` block of left then right children — followed by the
    ``(d,)`` root. ``node_live`` is the liveness in the same order:
    ``(2, n_pairs)`` then the root. :meth:`bound_views` reshapes the
    buffers; refit writes through it and then calls
    :meth:`_refresh_liveness`. Everything else here is derived.

    A subclass names its tree layout (``topology``, the kernel's view of
    its child links and leaves) and its build preset (``builder``, the
    ``bvh.traverse`` span attribute); :meth:`traverse` is the one ray
    launch both layouts run.
    """

    boxes: Boxes
    node_lo: np.ndarray
    node_hi: np.ndarray
    node_live: np.ndarray
    n_prims: int
    topology: type
    builder: str

    def _alloc_nodes(self, n_nodes: int) -> None:
        self.node_lo = np.empty(self.boxes.ndim * n_nodes, dtype=self.boxes.dtype)
        self.node_hi = np.empty_like(self.node_lo)

    @property
    def n_nodes(self) -> int:
        return len(self.node_lo) // self.boxes.ndim

    @property
    def node_bytes(self) -> int:
        """Bytes of the stored node bounds."""
        return self.node_lo.nbytes + self.node_hi.nbytes

    def bound_views(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``((lo_pairs, lo_root), (hi_pairs, hi_root))``: per bound the
        ``(d, 2, n_pairs)`` sibling blocks and the ``(d,)`` root, as
        views of ``node_lo``/``node_hi``."""
        d = self.boxes.ndim
        p = (self.n_nodes - 1) // 2
        k = 2 * d * p
        return tuple((b[:k].reshape(d, 2, p), b[k:]) for b in (self.node_lo, self.node_hi))

    @property
    def node_mins(self) -> np.ndarray:
        """``(n_nodes, d)`` lower bounds in node-id order (a copy)."""
        return _node_order(*self.bound_views()[0])

    @property
    def node_maxs(self) -> np.ndarray:
        """``(n_nodes, d)`` upper bounds in node-id order (a copy)."""
        return _node_order(*self.bound_views()[1])

    @property
    def _live(self) -> np.ndarray:
        """Node liveness in node-id order (a copy)."""
        p = (self.n_nodes - 1) // 2
        return _node_order(self.node_live[:-1].reshape(2, p), self.node_live[-1])

    def _store_node_order(self, mins: np.ndarray, maxs: np.ndarray) -> None:
        """Store ``(n_nodes, d)`` node-id ordered bounds (a refit that
        works by node id) and refresh the liveness."""
        for (pairs, root), a in zip(self.bound_views(), (mins, maxs)):
            root[:] = a[0]
            pairs[:, 0] = a[1::2].T
            pairs[:, 1] = a[2::2].T
        self._refresh_liveness()

    def _refresh_liveness(self) -> None:
        (lo_pairs, lo_root), (hi_pairs, hi_root) = self.bound_views()
        self.node_live = np.append(
            box_live(lo_pairs, hi_pairs).reshape(-1), box_live(lo_root, hi_root)
        )

    def traverse(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        tmins: np.ndarray,
        tmaxs: np.ndarray,
        stats: TraversalStats,
        tracer=None,
    ) -> Candidates:
        """Cast a batch of rays; return IS-shader candidates.

        ``tracer`` records the traversal as a ``bvh.traverse`` span with
        counter deltas; observation is read-only, results are identical
        with or without it.
        """
        if tracer is None or not tracer.enabled:
            return traverse(
                [self.topology(self)] if self.n_prims else [],
                RaySlab(origins, dirs, tmins, tmaxs),
                origins.shape[0],
                stats,
            )
        with tracer.span(
            "bvh.traverse",
            builder=self.builder,
            n_rays=int(origins.shape[0]),
            n_prims=self.n_prims,
        ) as sp:
            before = counter_snapshot(stats)
            out = self.traverse(origins, dirs, tmins, tmaxs, stats)
            record_delta(sp, before, stats)
        return out


# -- topologies ----------------------------------------------------------------


class _Topology:
    """Views of a structure's pair-major node storage. Built per launch;
    holds no copies."""

    __slots__ = ("n_prims", "lo", "hi", "root_lo", "root_hi", "root_live", "live")

    def __init__(self, bvh):
        self.n_prims = bvh.n_prims
        (self.lo, root_lo), (self.hi, root_hi) = bvh.bound_views()
        self.root_lo, self.root_hi = root_lo[:, None], root_hi[:, None]
        self.root_live = bvh.node_live[-1:]
        self.live = bvh.node_live[:-1].reshape(2, self.lo.shape[-1])


class HeapTopology(_Topology):
    """The implicit complete tree of :class:`~repro.rtcore.bvh.BVH`.

    Node 0 is the root, children of *i* are ``2i+1``/``2i+2`` (pair *i*),
    and node ``first_leaf + j`` is leaf slot *j* of ``leaf_prims``
    (``-1`` marks padding).
    """

    __slots__ = ("first_leaf", "leaf_prims")

    def __init__(self, bvh):
        super().__init__(bvh)
        self.first_leaf = bvh.n_leaves - 1
        self.leaf_prims = bvh.leaf_prims

    def leaves(self, nodes: np.ndarray) -> np.ndarray | None:
        """Leaf mask of a frontier, or ``None`` when it holds no leaf.
        Every level of a complete tree sits at one depth, so the first
        node decides."""
        return None if nodes[0] < self.first_leaf else nodes >= self.first_leaf

    def child_pairs(self, nodes: np.ndarray) -> np.ndarray:
        return nodes

    def leaf_candidates(self, rows, nodes):
        """``(rows, prims)`` of a batch of leaf hits."""
        leaves = nodes - self.first_leaf
        if self.leaf_prims.shape[1] == 1:
            prims = self.leaf_prims[leaves, 0]
        else:
            prims = self.leaf_prims[leaves].reshape(-1)
            rows = np.repeat(rows, self.leaf_prims.shape[1])
        valid = prims >= 0
        return rows[valid], prims[valid]


class ExplicitTopology(_Topology):
    """The explicit topology of :class:`~repro.rtcore.sah.SAHBVH`:
    ``left``/``right`` child ids (``-1`` marks a leaf; ``right`` is
    always ``left + 1``, so node *i*'s children are pair
    ``(left[i] - 1) // 2``) and, for leaves, a ``start``/``count`` range
    into the primitive permutation ``perm``."""

    __slots__ = ("left", "start", "count", "perm")

    def __init__(self, bvh):
        super().__init__(bvh)
        self.left = bvh.left
        self.start = bvh.start
        self.count = bvh.count
        self.perm = bvh.perm

    def leaves(self, nodes: np.ndarray) -> np.ndarray | None:
        leaf = self.left[nodes] == -1
        return leaf if leaf.any() else None

    def child_pairs(self, nodes: np.ndarray) -> np.ndarray:
        return (self.left[nodes] - 1) >> 1

    def leaf_candidates(self, rows, nodes):
        sizes = self.count[nodes]
        sc = np.concatenate([[0], np.cumsum(sizes[:-1])])
        offs = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(sc, sizes)
        prims = self.perm[np.repeat(self.start[nodes], sizes) + offs]
        return np.repeat(rows, sizes), prims


# -- node tests ----------------------------------------------------------------


def _uniform(a: np.ndarray):
    """``a``'s one value (a NumPy scalar of its dtype, which promotes
    like the array) when all of ``a`` equals it, else ``a``."""
    return a[0] if len(a) and (a == a[0]).all() else a


def _at(a, rows: np.ndarray):
    return a[rows] if isinstance(a, np.ndarray) else a


class RaySlab:
    """The ray-AABB slab test over one launch's rays.

    Built once per launch: origins as a ``(d, m)`` block, ``1/dir`` as
    one for the axes some ray is not parallel to (so a step gathers the
    ray side with two ``take`` calls), and ``tmins``/``tmaxs`` kept as
    scalars when the launch's intervals are all equal. ``axes`` holds per
    axis ``None`` when every ray is parallel to it (e.g. the y axis of
    point rays), else ``(row of invs, zero-direction mask or None)``.

    A ray parallel to an axis never enters or leaves its slab, so that
    axis is an inside test (closed, on the origin) ANDed into the hit,
    with no ``t`` products; the other axes' folds are clamped with
    ``fmax(t_enter, -inf)``/``fmin(t_exit, +inf)``, which turns a NaN
    fold into the unbounded interval as the parallel axis's ``(-inf,
    +inf)`` term would. An axis with a per-ray mask patches only the
    parallel rays' columns to ``(-inf, +inf)`` and ANDs
    ``inside | ~parallel`` into the hit. Every fold stays in the
    coordinate dtype.
    """

    __slots__ = ("origins", "invs", "axes", "tmins", "tmaxs")

    def __init__(self, origins, dirs, tmins, tmaxs):
        self.origins = np.ascontiguousarray(origins.T)
        invs, self.axes = [], []
        with np.errstate(divide="ignore", over="ignore"):
            for col in dirs.T:
                par = col == 0.0
                if par.all():
                    self.axes.append(None)
                else:
                    self.axes.append((len(invs), par if par.any() else None))
                    invs.append(1.0 / col)
        self.invs = np.array(invs) if invs else None
        self.tmins = _uniform(tmins)
        self.tmaxs = _uniform(tmaxs)

    def test(self, rows, box_lo, box_hi, live):
        """Hit mask of rays ``rows`` against per-axis box bounds
        ``box_lo``/``box_hi``, each ``rows``-aligned or a block whose
        last axis is (a ``(2, len(rows))`` sibling block, or several
        structures' roots as ``(n, 1)``; the ray side broadcasts over
        the leading axes). ``live`` is the boxes' gathered liveness."""
        origins = self.origins.take(rows, axis=1)
        invs = None if self.invs is None else self.invs.take(rows, axis=1)
        hit = live
        t_enter = t_exit = None
        clamp = False
        for o, axis, lo, hi in zip(origins, self.axes, box_lo, box_hi):
            if axis is None:
                hit = hit & (lo <= o)
                hit &= o <= hi
                clamp = True
                continue
            j, par = axis
            t1 = (lo - o) * invs[j]
            t2 = (hi - o) * invs[j]
            near = np.fmin(t1, t2)
            far = np.fmax(t1, t2, out=t1)
            if par is not None:
                par = par[rows]
                if par.any():
                    near[..., par] = -np.inf
                    far[..., par] = np.inf
                    hit = hit & ((lo <= o) & (o <= hi) | ~par)
            if t_enter is None:
                t_enter, t_exit = near, far
            else:
                np.fmax(t_enter, near, out=t_enter)
                np.fmin(t_exit, far, out=t_exit)
        if t_enter is None:
            t_enter, t_exit = -np.inf, np.inf
        elif clamp:
            np.fmax(t_enter, -np.inf, out=t_enter)
            np.fmin(t_exit, np.inf, out=t_exit)
        return slab_hit(t_enter, t_exit, _at(self.tmins, rows), _at(self.tmaxs, rows), hit)


class BoxOverlap:
    """Closed box-box overlap of one launch's query boxes (no rays)."""

    __slots__ = ("queries",)

    def __init__(self, q_mins, q_maxs):
        self.queries = np.stack((q_mins.T, q_maxs.T), axis=1)

    def test(self, rows, box_lo, box_hi, live):
        """Overlap mask of queries ``rows`` against per-axis box bounds
        (aligned as for :meth:`RaySlab.test`); ``live`` is the boxes'
        liveness, or ``None`` to derive it from the bounds."""
        hit = box_live(box_lo, box_hi) if live is None else live
        for b_lo, b_hi, (q_lo, q_hi) in zip(box_lo, box_hi, self.queries.take(rows, axis=2)):
            hit = hit & (b_lo <= q_hi)
            hit &= b_hi >= q_lo
        return hit


# -- the kernel ----------------------------------------------------------------


#: Below this many pairs ``hit.T.nonzero()`` (one call) is fastest; above
#: it, its iteration over the length-2 inner axis loses to two column
#: writes into a ``(P, 2)`` buffer (the crossover measures at 512-1024).
_SMALL_BLOCK = 512


def _hits_parent_major(hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(parent, side)`` of the hits of a ``(2, P)`` block in
    parent-major, left-then-right order (the order of ``hit.T``)."""
    if hit.shape[1] < _SMALL_BLOCK:
        return hit.T.nonzero()
    pm = np.empty(hit.shape[::-1], dtype=bool)
    pm[:, 0] = hit[0]
    pm[:, 1] = hit[1]
    flat = pm.reshape(-1).nonzero()[0]
    return flat >> 1, flat & 1


def traverse(
    topos,
    test,
    m: int,
    stats: TraversalStats,
    instance_ids=None,
) -> Candidates:
    """Run one launch of ``m`` rows through the structures ``topos``
    (each holding at least one primitive, all of one coordinate dtype)
    with node test ``test``.

    The structures descend in lockstep as one frontier: the root step
    tests every structure's root as one ``(len(topos), m)`` block, and
    each later step concatenates the child pairs of every structure's
    frontier segment into one ``(d, 2, P)`` block, so a level costs one
    node test however many structures the launch holds. Every root
    test counts one node visit for its row, and every ``(row, parent)``
    pair whose children are tested counts two; every candidate
    primitive of a hit leaf counts one IS invocation. Candidates come
    out structure by structure in ``topos`` order, each level by level
    in frontier order (parent-major, children of a node in left, right
    order): exactly a separate launch per structure, concatenated.
    ``instance_ids`` (one per structure) fills the candidates'
    ``instance_ids`` column. An empty launch visits nothing.
    """
    if m == 0 or not topos:
        return Candidates.empty()
    n = len(topos)
    out: list[list[Candidates]] = [[] for _ in range(n)]
    with np.errstate(invalid="ignore", over="ignore"):
        rows = np.arange(m, dtype=np.int64)
        if n == 1:
            root = topos[0].root_lo, topos[0].root_hi, topos[0].root_live
        else:
            root = (
                np.stack([topo.root_lo for topo in topos], axis=1),
                np.stack([topo.root_hi for topo in topos], axis=1),
                np.stack([topo.root_live for topo in topos]),
            )
        hit = test.test(rows, *root)
        stats.count_nodes(rows, per_entry=n)
        if n == 1:
            hit = [hit]
        # The frontier: per structure with hits, ``(topo, its candidate
        # parts, rows, nodes)``.
        frontier = []
        for topo, parts, h in zip(topos, out, hit):
            r = rows[h]
            if len(r):
                frontier.append((topo, parts, r, np.zeros(len(r), dtype=np.int64)))
        while frontier:
            segs = []
            for topo, parts, rows, nodes in frontier:
                leaf = topo.leaves(nodes)
                if leaf is not None:
                    c_rows, prims = topo.leaf_candidates(rows[leaf], nodes[leaf])
                    stats.count_is(c_rows)
                    parts.append(Candidates(c_rows, prims))
                    rows, nodes = rows[~leaf], nodes[~leaf]
                    if not len(rows):
                        continue
                segs.append((topo, parts, rows, topo.child_pairs(nodes)))
            single = len(segs) == 1
            if single:
                topo, parts, rows, pairs = segs[0]
                lo = topo.lo.take(pairs, axis=2)
                hi = topo.hi.take(pairs, axis=2)
                live = topo.live.take(pairs, axis=1)
            elif segs:
                seg_topos, _, seg_rows, seg_pairs = zip(*segs)
                rows = np.concatenate(seg_rows)
                pairs = np.concatenate(seg_pairs)
                gathered = list(zip(seg_topos, seg_pairs))
                lo = np.concatenate([t.lo.take(p, axis=2) for t, p in gathered], axis=2)
                hi = np.concatenate([t.hi.take(p, axis=2) for t, p in gathered], axis=2)
                live = np.concatenate([t.live.take(p, axis=1) for t, p in gathered], axis=1)
            else:
                break
            hit = test.test(rows, lo, hi, live)
            stats.count_nodes(rows, per_entry=2)
            parent, side = _hits_parent_major(hit)
            nodes = pairs[parent]
            nodes <<= 1
            nodes += side
            nodes += 1
            rows = rows[parent]
            if single:
                frontier = [(topo, parts, rows, nodes)] if len(rows) else []
                continue
            # ``parent`` ascends, so each segment's hits are one slice.
            ends = np.searchsorted(parent, list(accumulate(map(len, seg_rows))))
            frontier, a = [], 0
            for (topo, parts, _, _), b in zip(segs, ends.tolist()):
                if a < b:
                    frontier.append((topo, parts, rows[a:b], nodes[a:b]))
                a = b
    cand = Candidates.concat([c for part in out for c in part])
    if instance_ids is not None:
        counts = [sum(map(len, part)) for part in out]
        cand.instance_ids = np.repeat(np.asarray(instance_ids, dtype=np.int64), counts)
    return cand
