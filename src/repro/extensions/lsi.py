"""Line-Segment Intersection on the RT substrate.

RayJoin [22] supports the LSI query (find all intersecting segment
pairs, e.g. between two road networks) as a bespoke RT formulation; the
paper notes LibRTS does not need case-by-case formulations. This module
expresses LSI through the substrate directly: a BVH over one set's
segment AABBs, the other set's segments cast as rays with ``t ∈ [0, 1]``
(Equation 2), and an exact orientation-based segment-segment test in the
IS stage.

The exact test handles proper crossings, touching endpoints, and
collinear overlaps (closed-segment semantics).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import Boxes
from repro.geometry.dtypes import promote64
from repro.perfmodel.platforms import rt_core_platform
from repro.rtcore.bvh import BVH
from repro.rtcore.stats import TraversalStats


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sign of the cross product (b - a) x (c - a): +1 left, -1 right,
    0 collinear."""
    v = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    return np.sign(v)


def _on_segment(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Whether collinear point p lies within the closed box of segment ab."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return ((lo <= p) & (p <= hi)).all(axis=1)


def segments_intersect(
    a1: np.ndarray, a2: np.ndarray, b1: np.ndarray, b2: np.ndarray
) -> np.ndarray:
    """Exact closed-segment intersection test for aligned pairs.

    The classic orientation predicate: proper crossings have opposite
    orientations on both sides; degenerate (collinear/touching) cases
    fall back to on-segment containment checks.
    """
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    touch = (
        ((d1 == 0) & _on_segment(b1, b2, a1))
        | ((d2 == 0) & _on_segment(b1, b2, a2))
        | ((d3 == 0) & _on_segment(a1, a2, b1))
        | ((d4 == 0) & _on_segment(a1, a2, b2))
    )
    return proper | touch


class LSIResult:
    """Intersecting (a, b) segment index pairs plus the simulated cost."""

    __slots__ = ("a_ids", "b_ids", "sim_time")

    def __init__(self, a_ids: np.ndarray, b_ids: np.ndarray, sim_time: float):
        order = np.lexsort((b_ids, a_ids))
        self.a_ids = np.asarray(a_ids, dtype=np.int64)[order]
        self.b_ids = np.asarray(b_ids, dtype=np.int64)[order]
        self.sim_time = float(sim_time)

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time * 1e3

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a_ids, self.b_ids

    def __len__(self) -> int:
        return len(self.a_ids)


def segment_join(
    a1: np.ndarray,
    a2: np.ndarray,
    b1: np.ndarray | None = None,
    b2: np.ndarray | None = None,
    dtype=np.float64,
) -> LSIResult:
    """All intersecting segment pairs between set A and set B.

    With only A given, performs the self-join: pairs ``(i, j)`` with
    ``i < j`` (segments sharing an endpoint count as intersecting, the
    closed-segment convention; filter afterwards if a road network's
    shared junctions should not count).
    """
    a1, a2 = promote64(a1, a2)
    self_join = b1 is None
    if self_join:
        b1, b2 = a1, a2
    else:
        b1, b2 = promote64(b1, b2)

    # BVH over A's segment AABBs; B's segments become rays.
    boxes = Boxes(np.minimum(a1, a2), np.maximum(a1, a2), dtype=dtype)
    bvh = BVH(boxes, leaf_size=1)
    m = len(b1)
    stats = TraversalStats(m)
    dirs = (b2 - b1).astype(boxes.dtype)
    cand = bvh.traverse(
        b1.astype(boxes.dtype),
        dirs,
        np.zeros(m, dtype=boxes.dtype),
        np.ones(m, dtype=boxes.dtype),
        stats,
    )
    # IS stage: exact orientation test in full precision.
    ok = segments_intersect(
        a1[cand.prims], a2[cand.prims], b1[cand.rows], b2[cand.rows]
    )
    a_ids, b_ids = cand.prims[ok], cand.rows[ok]
    if self_join:
        keep = a_ids < b_ids
        a_ids, b_ids = a_ids[keep], b_ids[keep]
    stats.count_results(b_ids)
    sim = rt_core_platform().query_time(stats, bvh.n_nodes)
    return LSIResult(a_ids, b_ids, sim)
