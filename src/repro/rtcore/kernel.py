"""The frontier traversal kernel every rtcore structure runs.

A launch descends a BVH as a frontier of *hit inner nodes*: the root is
tested against every ray, and each later step tests both children of
every hit inner node as one ``(2, P)`` block (row 0 the left child, row
1 the right, one column per ``(ray, parent)`` pair). Leaf hits become
per-primitive IS candidates, inner hits the next step's parents. The
per-ray node visit and IS counts recorded in
:class:`~repro.rtcore.stats.TraversalStats` are exactly what each
hardware thread would perform under the single-ray programming model:
every tested pair adds two node visits to its ray.

:func:`traverse` is parameterised by

- the *topology* — :class:`HeapTopology` for the implicit complete tree
  of :class:`~repro.rtcore.bvh.BVH` (children ``2i+1``/``2i+2``, a fixed
  leaf-slot table) or :class:`ExplicitTopology` for the
  ``left``/``right``/``start``/``count`` arrays of
  :class:`~repro.rtcore.sah.SAHBVH`;
- the *node test* — :class:`RaySlab` (the RT core's ray-AABB slab test)
  or :class:`BoxOverlap` (software box-box traversal, which backs the
  LBVH baseline).

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
elementwise ops (:func:`repro.geometry.ray.slab_axes`) under one
``np.errstate`` per launch.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import Boxes
from repro.geometry.dtypes import promote64
from repro.geometry.ray import box_live, fmax_first, slab_axes, slab_hit
from repro.rtcore.stats import TraversalStats


class Candidates:
    """IS-shader candidates produced by one traversal.

    ``rows`` indexes the launch's ray batch, ``prims`` are primitive ids
    local to the traversed structure, ``t_enter`` the box entry parameter,
    and ``aabb_hit`` whether the ray actually meets the primitive's AABB
    (OptiX invokes the IS shader on *potential* hits, footnote 2 of the
    paper, so with leaf sizes above one some candidates carry
    ``aabb_hit = False``). Box-overlap traversals carry no ``t_enter``
    (``None``).
    """

    __slots__ = ("rows", "prims", "t_enter", "aabb_hit")

    def __init__(self, rows, prims, t_enter, aabb_hit):
        self.rows = rows
        self.prims = prims
        self.t_enter = t_enter
        self.aabb_hit = aabb_hit

    @classmethod
    def empty(cls) -> "Candidates":
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            promote64(np.empty(0)),
            np.empty(0, dtype=bool),
        )

    @classmethod
    def concat(cls, parts: list["Candidates"]) -> "Candidates":
        parts = [p for p in parts if len(p.rows)]
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.rows for p in parts]),
            np.concatenate([p.prims for p in parts]),
            None if parts[0].t_enter is None
            else np.concatenate([p.t_enter for p in parts]),
            np.concatenate([p.aabb_hit for p in parts]),
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
    """

    boxes: Boxes
    node_lo: np.ndarray
    node_hi: np.ndarray
    node_live: np.ndarray

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

    def root_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """World bounds of the whole structure (the root box)."""
        (_, lo), (_, hi) = self.bound_views()
        return lo.copy(), hi.copy()

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


# -- topologies ----------------------------------------------------------------


class _Topology:
    """Views of a structure's pair-major node storage and primitive
    boxes. Built per launch; holds no copies."""

    __slots__ = ("n_prims", "lo", "hi", "root_lo", "root_hi", "root_live", "live", "boxes")

    def __init__(self, bvh):
        self.n_prims = bvh.n_prims
        (self.lo, root_lo), (self.hi, root_hi) = bvh.bound_views()
        self.root_lo, self.root_hi = root_lo[:, None], root_hi[:, None]
        self.root_live = bvh.node_live[-1:]
        self.live = bvh.node_live[:-1].reshape(2, self.lo.shape[-1])
        self.boxes = bvh.boxes


class HeapTopology(_Topology):
    """The implicit complete tree of :class:`~repro.rtcore.bvh.BVH`.

    Node 0 is the root, children of *i* are ``2i+1``/``2i+2`` (pair *i*),
    and node ``first_leaf + j`` is leaf slot *j* of ``leaf_prims``
    (``-1`` marks padding). With one primitive per leaf the leaf box *is*
    the primitive box, so leaf hits become candidates without a second
    test.
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

    def wants_t_enter(self, first_child: int) -> bool:
        """Whether leaf hits of the level starting at node
        ``first_child`` become candidates with the node test's
        ``t_enter``. Every level of a complete tree sits at one depth,
        so its first node decides."""
        return self.leaf_prims.shape[1] == 1 and first_child >= self.first_leaf

    def leaf_candidates(self, rows, nodes, t_enter):
        """``(rows, prims, t_enter)`` of a batch of leaf hits; ``t_enter``
        is ``None`` when the primitives still need their own test."""
        leaves = nodes - self.first_leaf
        if self.leaf_prims.shape[1] == 1:
            prims = self.leaf_prims[leaves, 0]
            valid = prims >= 0
            if t_enter is not None:
                t_enter = t_enter[valid]
            return rows[valid], prims[valid], t_enter
        prims = self.leaf_prims[leaves].reshape(-1)
        rows = np.repeat(rows, self.leaf_prims.shape[1])
        valid = prims >= 0
        return rows[valid], prims[valid], None


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

    def wants_t_enter(self, first_child: int) -> bool:
        return False

    def leaf_candidates(self, rows, nodes, t_enter):
        sizes = self.count[nodes]
        sc = np.concatenate([[0], np.cumsum(sizes[:-1])])
        offs = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(sc, sizes)
        prims = self.perm[np.repeat(self.start[nodes], sizes) + offs]
        return np.repeat(rows, sizes), prims, None


# -- node tests ----------------------------------------------------------------


def _uniform(a: np.ndarray):
    """``a``'s one value (a NumPy scalar of its dtype, which promotes
    like the array) when all of ``a`` equals it, else ``a``."""
    return a[0] if len(a) and (a == a[0]).all() else a


def _at(a, rows: np.ndarray):
    return a[rows] if isinstance(a, np.ndarray) else a


class RaySlab:
    """The ray-AABB slab test over one launch's rays.

    Built once per launch: origins as a ``(d, m)`` block and ``1/dir``
    as one for the non-parallel axes (so a step gathers the ray side
    with two ``take`` calls), the zero-direction masks taken once (an
    axis is flagged ``True`` when every ray is parallel to it, e.g. the
    y axis of point rays, and then skips the t products), and
    ``tmins``/``tmaxs`` kept as scalars when the launch's intervals are
    all equal.
    """

    __slots__ = ("origins", "invs", "inv_rows", "parallels", "tmins", "tmaxs")

    def __init__(self, origins, dirs, tmins, tmaxs):
        self.origins = np.ascontiguousarray(origins.T)
        invs, self.inv_rows, self.parallels = [], [], []
        with np.errstate(divide="ignore", over="ignore"):
            for col in dirs.T:
                par = col == 0.0
                every = par.all()
                self.inv_rows.append(None if every else len(invs))
                self.parallels.append(True if every else (par if par.any() else None))
                if not every:
                    invs.append(1.0 / col)
        self.invs = np.array(invs) if invs else None
        self.tmins = _uniform(tmins)
        self.tmaxs = _uniform(tmaxs)

    def test(self, rows, box_lo, box_hi, live, want_t):
        """``(t_enter, hit)`` of rays ``rows`` against per-axis box bounds
        ``box_lo``/``box_hi``, each ``rows``-aligned or a
        ``(2, len(rows))`` sibling block (the ray side broadcasts over
        the leading axis). ``live`` is the boxes' gathered liveness, or
        ``None`` to derive it from the bounds. ``t_enter`` is ``None``
        unless ``want_t``: only then is it folded with the reduction's
        tie rule (its bits are observable)."""
        invs = None if self.invs is None else self.invs.take(rows, axis=1)
        t_enter, t_exit = slab_axes(
            self.origins.take(rows, axis=1),
            [None if j is None else invs[j] for j in self.inv_rows],
            [p if p is None or p is True else p[rows] for p in self.parallels],
            box_lo,
            box_hi,
            enter_fold=fmax_first if want_t else np.fmax,
            exit_fold=np.fmin,
        )
        if live is None:
            live = box_live(box_lo, box_hi)
        hit = slab_hit(
            t_enter, t_exit, _at(self.tmins, rows), _at(self.tmaxs, rows), live
        )
        return (t_enter if want_t else None), hit


class BoxOverlap:
    """Closed box-box overlap of one launch's query boxes (no rays)."""

    __slots__ = ("queries",)

    def __init__(self, q_mins, q_maxs):
        self.queries = np.stack((q_mins.T, q_maxs.T), axis=1)

    def test(self, rows, box_lo, box_hi, live, want_t):
        hit = box_live(box_lo, box_hi) if live is None else live
        for b_lo, b_hi, (q_lo, q_hi) in zip(box_lo, box_hi, self.queries.take(rows, axis=2)):
            hit = hit & (b_lo <= q_hi)
            hit &= b_hi >= q_lo
        return None, hit


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
    topo: _Topology, test, m: int, stats: TraversalStats, stat_ids: np.ndarray | None
) -> Candidates:
    """Run one launch of ``m`` rows through ``topo`` with node test ``test``.

    The root counts one node visit per row, and every ``(row, parent)``
    pair whose children are tested counts two for ``stat_ids[row]``;
    every candidate primitive of a hit leaf counts one IS invocation.
    Candidates come out level by level in frontier order (parent-major,
    children of a node in left, right order). Primitives of leaves whose
    box is not the primitive box are tested on their own boxes (that
    result is ``aabb_hit``). An empty launch or structure visits nothing.
    """
    if m == 0 or topo.n_prims == 0:
        return Candidates.empty()
    out: list[Candidates] = []
    with np.errstate(invalid="ignore", over="ignore"):
        rows = np.arange(m, dtype=np.int64)
        t_enter, hit = test.test(
            rows, topo.root_lo, topo.root_hi, topo.root_live, topo.wants_t_enter(0)
        )
        stats.count_nodes(rows if stat_ids is None else stat_ids)
        rows = rows[hit]
        nodes = np.zeros(len(rows), dtype=np.int64)
        t_hit = None if t_enter is None else t_enter[hit]
        while len(rows):
            leaf = topo.leaves(nodes)
            if leaf is not None:
                t = None if t_hit is None else t_hit[leaf]
                c_rows, prims, t = topo.leaf_candidates(rows[leaf], nodes[leaf], t)
                stats.count_is(c_rows if stat_ids is None else stat_ids[c_rows])
                if t is not None:
                    out.append(Candidates(c_rows, prims, t, np.ones(len(c_rows), dtype=bool)))
                else:
                    t, p_hit = test.test(
                        c_rows,
                        [c[prims] for c in topo.boxes.mins.T],
                        [c[prims] for c in topo.boxes.maxs.T],
                        None,
                        True,
                    )
                    out.append(Candidates(c_rows, prims, t, p_hit))
                rows, nodes = rows[~leaf], nodes[~leaf]
                if not len(rows):
                    break
            pairs = topo.child_pairs(nodes)
            want_t = topo.wants_t_enter(2 * int(pairs[0]) + 1)
            t_enter, hit = test.test(
                rows,
                topo.lo.take(pairs, axis=2),
                topo.hi.take(pairs, axis=2),
                topo.live.take(pairs, axis=1),
                want_t,
            )
            stats.count_nodes(rows if stat_ids is None else stat_ids[rows], per_entry=2)
            parent, side = _hits_parent_major(hit)
            t_hit = None if t_enter is None else t_enter[side, parent]
            rows = rows[parent]
            nodes = pairs[parent]
            nodes <<= 1
            nodes += side
            nodes += 1
    return Candidates.concat(out)
