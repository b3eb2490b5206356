"""The frontier traversal kernel every rtcore structure runs.

A launch descends a BVH as a frontier of ``(row, node)`` pairs expanded
level by level: one vectorized node test per level, leaf hits expanded
into per-primitive IS candidates, inner hits replaced by their children.
The per-ray node visit and IS counts recorded in
:class:`~repro.rtcore.stats.TraversalStats` are exactly what each
hardware thread would perform under the single-ray programming model.

:func:`traverse` is parameterised by

- the *topology* — :class:`HeapTopology` for the implicit complete tree
  of :class:`~repro.rtcore.bvh.BVH` (children ``2i+1``/``2i+2``, a fixed
  leaf-slot table) or :class:`ExplicitTopology` for the
  ``left``/``right``/``start``/``count`` arrays of
  :class:`~repro.rtcore.sah.SAHBVH`;
- the *node test* — :class:`RaySlab` (the RT core's ray-AABB slab test)
  or :class:`BoxOverlap` (software box-box traversal, which backs the
  LBVH baseline).

Layout: node bounds are read through strided per-axis column views of
the structure's ``(n_nodes, d)`` ``node_mins``/``node_maxs`` (no second
copy), and node liveness (``min <= max`` on every axis) is a boolean
array the structure caches whenever its node boxes change. Per launch the
node test splits the ray side into per-axis columns and takes ``1/dir``
and the zero-direction masks once; per level the coordinate axes are
unrolled into elementwise ops (:func:`repro.geometry.ray.slab_axes`).
"""

from __future__ import annotations

import numpy as np

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


def _columns(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Strided per-axis views of an ``(n, d)`` array (zero-copy)."""
    return tuple(a[:, k] for k in range(a.shape[1]))


def node_liveness(node_mins: np.ndarray, node_maxs: np.ndarray) -> np.ndarray:
    """Per-node ``all(min <= max)``: the cache structures refresh
    whenever their node boxes change (refit, rebuild)."""
    return box_live(_columns(node_mins), _columns(node_maxs))


# -- topologies ----------------------------------------------------------------


class _Topology:
    """Per-axis views of a structure's node and primitive boxes, plus its
    cached node liveness. Built per launch; holds no copies."""

    __slots__ = ("n_prims", "lo", "hi", "live", "prim_lo", "prim_hi")

    def __init__(self, bvh):
        self.n_prims = bvh.n_prims
        self.lo = _columns(bvh.node_mins)
        self.hi = _columns(bvh.node_maxs)
        self.live = bvh._live
        self.prim_lo = _columns(bvh.boxes.mins)
        self.prim_hi = _columns(bvh.boxes.maxs)


class HeapTopology(_Topology):
    """The implicit complete tree of :class:`~repro.rtcore.bvh.BVH`.

    Node 0 is the root, children of *i* are ``2i+1``/``2i+2``, and node
    ``first_leaf + j`` is leaf slot *j* of ``leaf_prims`` (``-1`` marks
    padding). With one primitive per leaf the leaf box *is* the
    primitive box, so leaf hits become candidates without a second test.
    """

    __slots__ = ("first_leaf", "leaf_prims")

    def __init__(self, bvh):
        super().__init__(bvh)
        self.first_leaf = bvh.n_leaves - 1
        self.leaf_prims = bvh.leaf_prims

    def is_leaf(self, nodes: np.ndarray) -> np.ndarray:
        return nodes >= self.first_leaf

    def wants_t_enter(self, nodes: np.ndarray) -> bool:
        """Whether leaf hits of this level become candidates with the
        node test's ``t_enter``. Every frontier level of a complete tree
        sits at one depth, so the first node decides."""
        return self.leaf_prims.shape[1] == 1 and nodes[0] >= self.first_leaf

    def children(self, rows: np.ndarray, nodes: np.ndarray):
        kids = np.empty((len(nodes), 2), dtype=np.int64)
        kids[:, 0] = 2 * nodes + 1
        kids[:, 1] = kids[:, 0] + 1
        return np.repeat(rows, 2), kids.reshape(-1)

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
    ``left``/``right`` child ids (``-1`` marks a leaf) and, for leaves, a
    ``start``/``count`` range into the primitive permutation ``perm``."""

    __slots__ = ("left", "right", "start", "count", "perm")

    def __init__(self, bvh):
        super().__init__(bvh)
        self.left = bvh.left
        self.right = bvh.right
        self.start = bvh.start
        self.count = bvh.count
        self.perm = bvh.perm

    def is_leaf(self, nodes: np.ndarray) -> np.ndarray:
        return self.left[nodes] == -1

    def wants_t_enter(self, nodes: np.ndarray) -> bool:
        return False

    def children(self, rows: np.ndarray, nodes: np.ndarray):
        kids = np.empty((len(nodes), 2), dtype=np.int64)
        kids[:, 0] = self.left[nodes]
        kids[:, 1] = self.right[nodes]
        return np.repeat(rows, 2), kids.reshape(-1)

    def leaf_candidates(self, rows, nodes, t_enter):
        sizes = self.count[nodes]
        sc = np.concatenate([[0], np.cumsum(sizes[:-1])])
        offs = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(sc, sizes)
        prims = self.perm[np.repeat(self.start[nodes], sizes) + offs]
        return np.repeat(rows, sizes), prims, None


# -- node tests ----------------------------------------------------------------


class RaySlab:
    """The ray-AABB slab test over one launch's rays.

    Built once per launch: origins split into per-axis columns, ``1/dir``
    and the zero-direction masks taken once (an axis is flagged ``True``
    when every ray is parallel to it, e.g. the y axis of point rays, and
    then skips the t products).
    """

    __slots__ = ("origins", "invs", "parallels", "tmins", "tmaxs")

    def __init__(self, origins, dirs, tmins, tmaxs):
        d = origins.shape[1]
        self.origins = [np.ascontiguousarray(origins[:, a]) for a in range(d)]
        self.invs, self.parallels = [], []
        for a in range(d):
            col = dirs[:, a]
            par = col == 0.0
            if par.all():
                self.invs.append(None)
                self.parallels.append(True)
                continue
            with np.errstate(divide="ignore", over="ignore"):
                self.invs.append(1.0 / col)
            self.parallels.append(par if par.any() else None)
        self.tmins = tmins
        self.tmaxs = tmaxs

    def test(self, rows, box_lo, box_hi, idx, live, want_t):
        """``(t_enter, hit)`` of rays ``rows`` against boxes ``idx`` of
        the per-axis bound columns. ``live`` is the boxes' gathered
        liveness (consumed), or ``None`` to derive it from the bounds.
        ``t_enter`` is ``None`` unless ``want_t``: only then is it folded
        with the reduction's tie rule (its bits are observable)."""
        lo = [c[idx] for c in box_lo]
        hi = [c[idx] for c in box_hi]
        t_enter, t_exit = slab_axes(
            [o[rows] for o in self.origins],
            [None if inv is None else inv[rows] for inv in self.invs],
            [p if p is None or p is True else p[rows] for p in self.parallels],
            lo,
            hi,
            enter_fold=fmax_first if want_t else np.fmax,
            exit_fold=np.fmin,
        )
        if live is None:
            live = box_live(lo, hi)
        hit = slab_hit(t_enter, t_exit, self.tmins[rows], self.tmaxs[rows], live)
        return (t_enter if want_t else None), hit


class BoxOverlap:
    """Closed box-box overlap of one launch's query boxes (no rays)."""

    __slots__ = ("q_lo", "q_hi")

    def __init__(self, q_mins, q_maxs):
        self.q_lo = _columns(q_mins)
        self.q_hi = _columns(q_maxs)

    def test(self, rows, box_lo, box_hi, idx, live, want_t):
        lo = [c[idx] for c in box_lo]
        hi = [c[idx] for c in box_hi]
        hit = box_live(lo, hi) if live is None else live
        for b_lo, b_hi, q_lo, q_hi in zip(lo, hi, self.q_lo, self.q_hi):
            hit &= b_lo <= q_hi[rows]
            hit &= b_hi >= q_lo[rows]
        return None, hit


# -- the kernel ----------------------------------------------------------------


def traverse(
    topo: _Topology, test, m: int, stats: TraversalStats, stat_ids: np.ndarray | None
) -> Candidates:
    """Run one launch of ``m`` rows through ``topo`` with node test ``test``.

    Every ``(row, node)`` pair tested counts one node visit for
    ``stat_ids[row]``; every candidate primitive of a hit leaf counts one
    IS invocation. Candidates come out level by level in frontier order
    (children of a node in left, right order). Primitives of leaves
    whose box is not the primitive box are tested on their own boxes
    (that result is ``aabb_hit``). An empty launch or structure visits
    nothing.
    """
    if m == 0 or topo.n_prims == 0:
        return Candidates.empty()
    rows = np.arange(m, dtype=np.int64)
    nodes = np.zeros(m, dtype=np.int64)
    out: list[Candidates] = []
    while len(rows):
        t_enter, hit = test.test(
            rows, topo.lo, topo.hi, nodes, topo.live[nodes], topo.wants_t_enter(nodes)
        )
        stats.count_nodes(rows if stat_ids is None else stat_ids[rows])
        rows, nodes = rows[hit], nodes[hit]
        leaf = topo.is_leaf(nodes)
        if leaf.any():
            t = None if t_enter is None else t_enter[hit][leaf]
            c_rows, prims, t = topo.leaf_candidates(rows[leaf], nodes[leaf], t)
            stats.count_is(c_rows if stat_ids is None else stat_ids[c_rows])
            if t is not None:
                out.append(Candidates(c_rows, prims, t, np.ones(len(c_rows), dtype=bool)))
            else:
                t, p_hit = test.test(c_rows, topo.prim_lo, topo.prim_hi, prims, None, True)
                out.append(Candidates(c_rows, prims, t, p_hit))
            rows, nodes = rows[~leaf], nodes[~leaf]
        rows, nodes = topo.children(rows, nodes)
    return Candidates.concat(out)
