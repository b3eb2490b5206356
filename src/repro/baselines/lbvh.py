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
RT cores).
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
from repro.rtcore.bvh import BVH
from repro.rtcore.stats import TraversalStats


class LBVHIndex(SpatialBaseline):
    """Karras linear BVH over rectangles, traversed in software."""

    name = "LBVH"

    def __init__(
        self,
        data: Boxes,
        leaf_size: int = 4,
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

    def point_query(self, points: np.ndarray) -> BaselineResult:
        pts = np.ascontiguousarray(points, dtype=self.data.dtype)
        rays = Rays.point_rays(pts)
        stats = TraversalStats(len(pts))
        cand = self.bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        keep = pairwise_box_contains_point(
            self.data.mins[cand.prims], self.data.maxs[cand.prims], pts[cand.rows]
        )
        r, q = cand.prims[keep], cand.rows[keep]
        stats.count_results(q)
        return BaselineResult(r, q, self.platform.query_time(stats, self.n_nodes))

    def contains_query(self, queries: Boxes) -> BaselineResult:
        q = queries.astype(self.data.dtype)
        centers = np.ascontiguousarray(q.centers(), dtype=self.data.dtype)
        rays = Rays.point_rays(centers)
        stats = TraversalStats(len(q))
        cand = self.bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
        keep = pairwise_box_contains_box(
            self.data.mins[cand.prims],
            self.data.maxs[cand.prims],
            q.mins[cand.rows],
            q.maxs[cand.rows],
        )
        r, qi = cand.prims[keep], cand.rows[keep]
        stats.count_results(qi)
        return BaselineResult(r, qi, self.platform.query_time(stats, self.n_nodes))

    def intersects_query(self, queries: Boxes) -> BaselineResult:
        q = queries.astype(self.data.dtype)
        stats = TraversalStats(len(q))
        rows, prims = self.bvh.traverse_boxes(q.mins, q.maxs, stats)
        stats.count_results(rows)
        return BaselineResult(prims, rows, self.platform.query_time(stats, self.n_nodes))
