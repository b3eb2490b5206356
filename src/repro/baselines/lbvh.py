"""LBVH: a software GPU BVH (paper Table 1: LBVH [28], Karras 2012).

The paper uses LBVH to show that LibRTS's advantage comes from the RT
*hardware*, since OptiX cannot disable acceleration: LBVH is the same
data structure built the same way (Morton sort), but traversed by SM
code. Here the structural identity is literal — the baseline reuses the
simulator's Morton-built BVH — and only the platform model differs:
software traversal pays the ~10x per-visit instruction cost plus the
memory-hierarchy ramp on large trees, under the same warp-max latency
semantics (no multicast, so skewed queries stall warps).

Queries are the classic software formulations: containment descent for
points and centers, box-overlap descent for Range-Intersects (one pass —
software traversal has no translation challenge, it simply cannot run on
RT cores). :func:`lbvh_launch` runs them over several trees at once; the
planner's LBVH route (:mod:`repro.plan.backends`) uses it over one tree
per GAS.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineResult, SpatialBaseline
from repro.geometry.boxes import Boxes
from repro.geometry.predicates import (
    pairwise_box_contains_box,
    pairwise_box_contains_point,
)
from repro.geometry.ray import Rays
from repro.perfmodel.build import BuildModel
from repro.perfmodel.platforms import GPUPlatform, software_gpu_platform
from repro.rtcore import kernel
from repro.rtcore.bvh import BVH
from repro.rtcore.stats import TraversalStats

#: Primitives per LBVH leaf.
LEAF_SIZE = 4


def lbvh_launch(bvhs, offsets, kind: str, queries, mins, maxs, stats: TraversalStats):
    """One software launch of a query batch over LBVHs in lockstep.

    ``kind`` is ``"point"`` (``queries`` an ``(m, d)`` point array),
    ``"contains"`` or ``"intersects"`` (``queries`` a :class:`Boxes`),
    in the trees' coordinate dtype. Points and the contains queries'
    centers cast point rays; intersects queries descend by box overlap.
    Candidate primitive ``p`` of ``bvhs[j]`` is slot ``offsets[j] + p``
    of ``mins``/``maxs``, the boxes the exact predicate then reads (a
    degenerate box there drops the slot). Returns the ``(slots, rows)``
    of the exact pairs in candidate order, with their results counted in
    ``stats``.
    """
    if kind == "intersects":
        test = kernel.BoxOverlap(queries.mins, queries.maxs)
    else:
        origins = queries if kind == "point" else queries.centers()
        rays = Rays.point_rays(np.ascontiguousarray(origins, dtype=mins.dtype))
        test = kernel.RaySlab(rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
    live = [j for j, bvh in enumerate(bvhs) if bvh.n_prims]
    cand = kernel.traverse(
        [kernel.HeapTopology(bvhs[j]) for j in live],
        test,
        len(queries),
        stats,
        [offsets[j] for j in live],
    )
    slots = cand.instance_ids + cand.prims
    rows = cand.rows
    if kind == "point":
        keep = pairwise_box_contains_point(mins[slots], maxs[slots], queries[rows])
    elif kind == "contains":
        keep = pairwise_box_contains_box(
            mins[slots], maxs[slots], queries.mins[rows], queries.maxs[rows]
        )
    else:
        keep = test.test(rows, [c[slots] for c in mins.T], [c[slots] for c in maxs.T], None)
    rows = rows[keep]
    stats.count_results(rows)
    return slots[keep], rows


class LBVHIndex(SpatialBaseline):
    """Karras linear BVH over rectangles, traversed in software."""

    name = "LBVH"

    def __init__(
        self,
        data: Boxes,
        leaf_size: int = LEAF_SIZE,
        platform: GPUPlatform | None = None,
    ):
        super().__init__(data)
        self.platform = platform or software_gpu_platform()
        self.bvh = BVH(data, leaf_size=leaf_size)

    def build_time(self) -> float:
        return BuildModel.lbvh_build(len(self.data))

    @property
    def n_nodes(self) -> int:
        return self.bvh.n_nodes

    def _query(self, kind: str, queries) -> BaselineResult:
        stats = TraversalStats(len(queries))
        r, q = lbvh_launch(
            [self.bvh], [0], kind, queries, self.data.mins, self.data.maxs, stats
        )
        return BaselineResult(r, q, self.platform.query_time(stats, self.n_nodes))

    def point_query(self, points: np.ndarray) -> BaselineResult:
        return self._query("point", np.ascontiguousarray(points, dtype=self.data.dtype))

    def contains_query(self, queries: Boxes) -> BaselineResult:
        return self._query("contains", queries.astype(self.data.dtype))

    def intersects_query(self, queries: Boxes) -> BaselineResult:
        return self._query("intersects", queries.astype(self.data.dtype))
