"""Diagonals, anti-diagonals, and segment-box intersection (paper §3.3).

Definition 4 fixes the corner conventions:

- the *diagonal* ``D_r`` runs from ``(xmin, ymax)`` to ``(xmax, ymin)``;
- the *anti-diagonal* runs from ``(xmin, ymin)`` to ``(xmax, ymax)``.

Algorithm 1 casts the diagonal with origin ``(xmax, ymin)`` and direction
towards ``(xmin, ymax)``; endpoint ordering does not change the set of
boxes a segment meets, so :func:`diagonal` follows Definition 4 and the
traversal code flips ordering to match Algorithm 1 where it matters for
byte-identical ray payloads.

In 3-D, the natural generalisation used here picks space diagonals of the
box; LibRTS's correctness never relies on diagonal coverage alone because
the IS shader re-verifies the exact predicate (see
:mod:`repro.core.queries.intersects`).
"""

from __future__ import annotations

import numpy as np

from repro.canonical import canonical_pairs
from repro.geometry.boxes import Boxes
from repro.geometry.ray import ray_aabb_hit


def diagonal(boxes: Boxes) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints ``(p1, p2)`` of each box's diagonal (Definition 4).

    2-D: ``(xmin, ymax) -> (xmax, ymin)``. 3-D: the space diagonal
    ``(xmin, ymax, zmin) -> (xmax, ymin, zmax)``, chosen so its xy shadow
    is exactly the 2-D diagonal.
    """
    p1 = boxes.mins.copy()
    p2 = boxes.maxs.copy()
    # Swap the y components: p1 takes ymax, p2 takes ymin.
    p1[:, 1] = boxes.maxs[:, 1]
    p2[:, 1] = boxes.mins[:, 1]
    return p1, p2


def anti_diagonal(boxes: Boxes) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of each box's anti-diagonal: ``min corner -> max corner``."""
    return boxes.mins.copy(), boxes.maxs.copy()


def pairwise_segment_intersects_box(
    p1: np.ndarray,
    p2: np.ndarray,
    box_mins: np.ndarray,
    box_maxs: np.ndarray,
) -> np.ndarray:
    """Whether each segment ``p1[i]..p2[i]`` meets the closed box ``i``.

    Implemented with the slab method (paper §3.3 cites Kay-Kajiya): the
    segment is the ray ``O = p1, d = p2 - p1`` restricted to
    ``t in [0, 1]``. This covers both Definition 5 (boundary crossing) and
    the origin-inside Case 2, which together are what the RT hardware test
    reports.
    """
    dirs = p2 - p1
    zeros = np.zeros(p1.shape[:-1], dtype=p1.dtype)
    return ray_aabb_hit(p1, dirs, zeros, zeros + 1.0, box_mins, box_maxs)


def join_segment_intersects_box(
    p1: np.ndarray, p2: np.ndarray, boxes: Boxes, block: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (segment i, box j) whose segment meets the box.

    Brute-force oracle used in tests of Theorem 1 and of the casting
    passes. Returns int64 ``(seg_idx, box_idx)`` sorted segment-major.
    """
    seg_parts: list[np.ndarray] = []
    box_parts: list[np.ndarray] = []
    n = p1.shape[0]
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        hits = pairwise_segment_intersects_box(
            p1[lo:hi, None, :],
            p2[lo:hi, None, :],
            boxes.mins[None, :, :],
            boxes.maxs[None, :, :],
        )
        si, bi = np.nonzero(hits)
        seg_parts.append(si + lo)
        box_parts.append(bi)
    if not seg_parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    # Segment-major: the segment plays the query's role in the key.
    box_idx, seg_idx = canonical_pairs(
        np.concatenate(box_parts), np.concatenate(seg_parts)
    )
    return seg_idx, box_idx
