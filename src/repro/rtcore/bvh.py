"""The driver-managed BVH over AABB custom primitives.

OptiX keeps the BVH structure and construction algorithm opaque (paper
§2.4); this simulator uses the construction real GPU drivers use for fast
builds: sort primitives by the Morton code of their centroid, then build
an implicit perfect binary tree over the sorted order. The tree is stored
heap-style (node 0 is the root, children of *i* are ``2i+1``/``2i+2``),
with the leaf level padded to a power of two using unhittable degenerate
boxes so that every level can be constructed and refit with pure
vectorized reductions.

The build is a per-axis Morton sort + pair-major refit: bounds,
centroids and codes are computed one axis column at a time into reused
buffers, :func:`~repro.geometry.morton.morton_order` sorts once, and
refit reduces straight into the kernel's pair-major node storage
(:class:`~repro.rtcore.kernel.PairMajorNodes`: per bound and axis the
left children of every inner node, then the right children, and the
roots last) — the one stored copy, with no ``(n, d)`` temporaries.

Traversal runs the one sibling-pair frontier kernel of
:mod:`repro.rtcore.kernel` over this tree's
:class:`~repro.rtcore.kernel.HeapTopology`; the per-ray node visit
counts it records in :class:`~repro.rtcore.stats.TraversalStats` are
exactly what each hardware thread would perform under the single-ray
programming model.

Refit (paper §2.4, §4.2) keeps the topology (the sorted order) and
recomputes node boxes bottom-up; when primitives move far from their
build-time position the stale order makes sibling boxes overlap, which
shows up as extra node visits — the BVH-quality degradation measured in
the paper's Figure 10(c) emerges from the same mechanism here.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import Boxes
from repro.geometry.morton import morton_order
from repro.rtcore import kernel
from repro.rtcore.kernel import PairMajorNodes


def _next_pow2(x: int) -> int:
    return 1 if x <= 1 else 1 << (x - 1).bit_length()


class BVH(PairMajorNodes):
    """A bounding volume hierarchy over a set of AABB primitives.

    Parameters
    ----------
    boxes:
        The primitive AABBs. The BVH keeps a reference — refit reads the
        *current* coordinates, matching OptiX refit semantics where the
        user updates the primitive buffer in place.
    leaf_size:
        Primitives per leaf. The default of 1 makes the leaf box the
        primitive box, so every IS invocation corresponds to a true
        ray-AABB hit; larger leaves reproduce OptiX's "potential hit"
        IS semantics and trade traversal depth for IS work.
    """

    topology = kernel.HeapTopology
    builder = "fast_build"

    def __init__(self, boxes: Boxes, leaf_size: int = 1):
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.boxes = boxes
        self.leaf_size = int(leaf_size)
        self.n_prims = len(boxes)
        self._sort()
        self.refit()

    # -- construction ------------------------------------------------------

    def _sort(self) -> None:
        """Order primitives by centroid Morton code (the build step GPU
        drivers perform; Karras 2012) and size the node arrays."""
        n = self.n_prims
        lo, hi = self.boxes.union_bounds()
        self.order = morton_order(self._centroid_columns(lo, hi), lo, hi)
        n_slots = max(1, -(-n // self.leaf_size))
        self.n_leaves = _next_pow2(n_slots)
        # Leaf slot table: slot -> primitive id, -1 for padding.
        padded = np.full(self.n_leaves * self.leaf_size, -1, dtype=np.int64)
        padded[:n] = self.order
        self.leaf_prims = padded.reshape(self.n_leaves, self.leaf_size)
        self._alloc_nodes(2 * self.n_leaves - 1)

    def _centroid_columns(self, lo: np.ndarray, hi: np.ndarray):
        """Yield each axis's primitive centroids clipped to ``[lo, hi]``,
        refilling one buffer. Degenerate (deleted) primitives have NaN
        centroids, which the Morton code sends to cell 0."""
        col = np.empty(self.n_prims, dtype=self.boxes.dtype)
        for axis in range(self.boxes.ndim):
            with np.errstate(invalid="ignore"):
                np.add(self.boxes.mins[:, axis], self.boxes.maxs[:, axis], out=col)
            col *= 0.5
            np.clip(col, lo[axis], hi[axis], out=col)
            yield col

    @property
    def depth(self) -> int:
        """Number of levels (root = level 0)."""
        return self.n_leaves.bit_length()

    def refit(self) -> None:
        """Recompute all node boxes bottom-up from the current primitive
        coordinates, keeping the topology (OptiX BVH update, §2.4).

        Per axis: gather into the leaf slots (padding is unhittable ±inf)
        and fold each leaf's slots left to right — the order a row
        reduction takes, so signed zeros keep their bits — into the leaf
        level's pairs (even leaves are left children, odd ones right);
        then, all axes at once, union each level's sibling pairs into the
        parents' pair slots, up to the root."""
        L, k, n, d = self.n_leaves, self.leaf_size, self.n_prims, self.boxes.ndim
        slots = np.empty(L * k, dtype=self.boxes.dtype)
        leaf = slots.reshape(L, k)
        for (blocks, top), prims, pad, union in zip(
            self.bound_views(),
            (self.boxes.mins, self.boxes.maxs),
            (np.inf, -np.inf),
            (np.minimum, np.maximum),
        ):
            for axis in range(d):
                np.take(prims[:, axis], self.order, out=slots[:n], mode="clip")
                slots[n:] = pad
                if L == 1:
                    dst, src = top[axis : axis + 1], leaf
                else:
                    # Leaf j is side j & 1 of pair (L - 2 + j) // 2.
                    dst = blocks[axis, :, L // 2 - 1 :]
                    src = leaf.reshape(L // 2, 2, k).transpose(1, 0, 2)
                dst[...] = src[..., 0]
                for j in range(1, k):
                    union(dst, src[..., j], out=dst)
            # Parents ``start..2*start`` (alternately left and right
            # children, odd ids first) fill pairs ``up..start-1``.
            start = L // 2 - 1
            while start > 0:
                up = (start - 1) // 2
                kids = blocks[:, :, start : 2 * start + 1].reshape(d, 2, -1, 2)
                kids = kids.transpose(0, 1, 3, 2)
                union(kids[:, 0], kids[:, 1], out=blocks[:, :, up:start])
                start = up
            if L > 1:
                union(blocks[:, 0, 0], blocks[:, 1, 0], out=top)
        self._refresh_liveness()

    def rebuild(self) -> None:
        """Full rebuild: re-sort primitives at their current coordinates
        and recompute boxes (restores BVH quality after heavy updates)."""
        self._sort()
        self.refit()
