"""Spatial predicates (paper Definitions 1-3), vectorized.

Pairwise variants evaluate a predicate on aligned index arrays and are the
exact filters run inside the IS shader (false-positive elimination, §3.1,
Algorithm 1 line 18). Join variants are brute-force all-pairs oracles used
by tests and by the sampled selectivity estimator of the Ray Multicast
cost model (§3.4).

All predicates treat boxes as closed sets, matching the ``<=`` comparisons
in the paper's definitions, and are false for degenerate (deleted) boxes.
"""

from __future__ import annotations

import numpy as np

from repro.canonical import canonical_pairs
from repro.geometry.boxes import Boxes


# ---------------------------------------------------------------------------
# Pairwise predicates: element i of the output corresponds to
# (r[i], s[i]) for aligned input arrays.
# ---------------------------------------------------------------------------


def pairwise_box_contains_point(
    r_mins: np.ndarray, r_maxs: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Definition 1: ``Contains(r, p)`` for aligned boxes and points."""
    return ((r_mins <= points) & (points <= r_maxs)).all(axis=-1)


def pairwise_box_contains_box(
    r_mins: np.ndarray,
    r_maxs: np.ndarray,
    s_mins: np.ndarray,
    s_maxs: np.ndarray,
) -> np.ndarray:
    """Definition 2: ``Contains(r, s)`` — r contains s, for aligned boxes.

    Follows the paper exactly, including the strict ``s.min < s.max``
    requirement embedded in Definition 2's chain
    ``r.min <= s.min < s.max <= r.max`` (degenerate/zero-extent s is never
    contained).
    """
    return (
        (r_mins <= s_mins) & (s_mins < s_maxs) & (s_maxs <= r_maxs)
    ).all(axis=-1)


def pairwise_box_intersects_box(
    r_mins: np.ndarray,
    r_maxs: np.ndarray,
    s_mins: np.ndarray,
    s_maxs: np.ndarray,
) -> np.ndarray:
    """Definition 3: ``Intersects(r, s)`` for aligned boxes.

    Degenerate boxes (min > max on an axis) can never satisfy the
    conjunction, so deleted primitives are filtered for free.
    """
    return (
        (r_mins <= s_maxs)
        & (r_maxs >= s_mins)
        & (r_mins <= r_maxs)
        & (s_mins <= s_maxs)
    ).all(axis=-1)


# ---------------------------------------------------------------------------
# Join (all-pairs) oracles. They return (r_idx, s_idx) int64 arrays in the
# canonical query-major order used across the repo: sorted by the query
# index s first, then the data index r (repro.canonical). Each kernel ANDs
# one 2-D (r block x s) comparison per axis; per-box liveness is reduced
# over the axes once, as a vector, before it is broadcast.
# ---------------------------------------------------------------------------


def _blocked_join(n_r: int, n_s: int, kernel, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate an all-pairs boolean kernel in row blocks to bound memory.

    ``kernel(lo, hi)`` must return the boolean matrix for r rows
    ``[lo, hi)`` against all of s.
    """
    r_parts: list[np.ndarray] = []
    s_parts: list[np.ndarray] = []
    for lo in range(0, n_r, block):
        hi = min(lo + block, n_r)
        rr, ss = np.nonzero(kernel(lo, hi))
        r_parts.append(rr + lo)
        s_parts.append(ss)
    if not r_parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    return canonical_pairs(np.concatenate(r_parts), np.concatenate(s_parts))


def join_contains_point(
    boxes: Boxes, points: np.ndarray, block: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (r, s) with ``Contains(boxes[r], points[s])`` (Def 1)."""
    pts = np.asarray(points)

    def kernel(lo: int, hi: int) -> np.ndarray:
        mins, maxs = boxes.mins[lo:hi], boxes.maxs[lo:hi]
        ok = np.ones((hi - lo, len(pts)), dtype=bool)
        for d in range(boxes.ndim):
            ok &= mins[:, d, None] <= pts[None, :, d]
            ok &= pts[None, :, d] <= maxs[:, d, None]
        return ok

    return _blocked_join(len(boxes), len(pts), kernel, block)


def join_contains_box(
    r: Boxes, s: Boxes, block: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j) with ``Contains(r[i], s[j])`` (Def 2)."""
    live_s = (s.mins < s.maxs).all(axis=-1)

    def kernel(lo: int, hi: int) -> np.ndarray:
        mins, maxs = r.mins[lo:hi], r.maxs[lo:hi]
        ok = np.repeat(live_s[None, :], hi - lo, axis=0)
        for d in range(r.ndim):
            ok &= mins[:, d, None] <= s.mins[None, :, d]
            ok &= s.maxs[None, :, d] <= maxs[:, d, None]
        return ok

    return _blocked_join(len(r), len(s), kernel, block)


def join_intersects_box(
    r: Boxes, s: Boxes, block: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j) with ``Intersects(r[i], s[j])`` (Def 3)."""
    live_r = (r.mins <= r.maxs).all(axis=-1)
    live_s = (s.mins <= s.maxs).all(axis=-1)

    def kernel(lo: int, hi: int) -> np.ndarray:
        mins, maxs = r.mins[lo:hi], r.maxs[lo:hi]
        ok = live_r[lo:hi, None] & live_s[None, :]
        for d in range(r.ndim):
            ok &= mins[:, d, None] <= s.maxs[None, :, d]
            ok &= maxs[:, d, None] >= s.mins[None, :, d]
        return ok

    return _blocked_join(len(r), len(s), kernel, block)
