"""RayJoin-style Point-in-Polygon (paper §6.9; RayJoin [22]).

RayJoin works on a planar-map representation and builds its BVH at the
*line-segment* level: every polygon edge becomes one AABB primitive.
PIP casts a ray from the query point and classifies membership from the
edges it crosses; here the classic even-odd rule is applied per polygon
(a +x ray with the half-open vertex convention, identical to the exact
refinement used elsewhere in the repo, so all three artifacts agree
bit-for-bit on membership).

The defining cost property reproduces directly: the primitive count is
the *edge* count, so BVH construction dominates end-to-end time on large
datasets (up to 98.7% in the paper) and memory grows with total
vertices — the reason RayJoin cannot process the full OSM corpora.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import Boxes
from repro.geometry.polygon import PolygonSoup
from repro.perfmodel.build import BuildModel
from repro.perfmodel.platforms import rt_core_platform
from repro.pip.result import PIPResult
from repro.rtcore.bvh import BVH
from repro.rtcore.stats import TraversalStats


class RayJoinPIP:
    """PIP via a segment-level BVH on the (simulated) RT cores."""

    name = "RayJoin"

    def __init__(self, polys: PolygonSoup, dtype=np.float64):
        self.polys = polys
        self.p1, self.p2, self.owner = polys.edges()
        mins = np.minimum(self.p1, self.p2)
        maxs = np.maximum(self.p1, self.p2)
        self.edge_boxes = Boxes(mins, maxs, dtype=dtype)
        self.bvh = BVH(self.edge_boxes, leaf_size=1)
        self.platform = rt_core_platform()
        self.build_sim_time = BuildModel.optix_gas_build(len(self.edge_boxes))

    def query(self, points: np.ndarray, chunk: int = 65536) -> PIPResult:
        """All (polygon, point) membership pairs via crossing parity."""
        pts = np.ascontiguousarray(points, dtype=self.edge_boxes.dtype)
        m = len(pts)
        dtype = self.edge_boxes.dtype
        query_time = 0.0
        out_poly: list[np.ndarray] = []
        out_point: list[np.ndarray] = []

        for start in range(0, m, chunk):
            end = min(start + chunk, m)
            batch = pts[start:end]
            b = len(batch)
            # +x rays through the whole domain.
            dirs = np.zeros_like(batch)
            dirs[:, 0] = 1.0
            stats = TraversalStats(b)
            cand = self.bvh.traverse(
                batch,
                dirs,
                np.zeros(b, dtype=dtype),
                np.full(b, np.inf, dtype=dtype),
                stats,
            )
            # IS shader: exact half-open crossing test (same convention as
            # PolygonSoup.contains_points, so parities agree exactly).
            e1 = self.p1[cand.prims]
            e2 = self.p2[cand.prims]
            p = batch[cand.rows]
            spans = (e1[:, 1] <= p[:, 1]) != (e2[:, 1] <= p[:, 1])
            with np.errstate(divide="ignore", invalid="ignore"):
                x_at = e1[:, 0] + (p[:, 1] - e1[:, 1]) * (e2[:, 0] - e1[:, 0]) / (
                    e2[:, 1] - e1[:, 1]
                )
            crossing = spans & (p[:, 0] < x_at)
            rows = cand.rows[crossing]
            polys = self.owner[cand.prims[crossing]]
            # Odd crossing count => the point is inside that polygon.
            key = polys * np.int64(m) + (rows + start)
            uniq, counts = np.unique(key, return_counts=True)
            odd = counts % 2 == 1
            out_poly.append(uniq[odd] // m)
            out_point.append(uniq[odd] % m)
            stats.count_results(rows)
            query_time += self.platform.query_time(stats, self.bvh.n_nodes)

        if out_poly:
            poly_ids = np.concatenate(out_poly)
            point_ids = np.concatenate(out_point)
        else:
            poly_ids = np.empty(0, dtype=np.int64)
            point_ids = np.empty(0, dtype=np.int64)
        phases = {"build": self.build_sim_time, "query": query_time}
        return PIPResult(poly_ids, point_ids, phases)
