"""Ray Multicast load balancing (paper §3.4, Figure 5).

OptiX's single-ray programming model executes all shaders of a ray on the
thread that cast it, so a ray that intersects thousands of primitives
stalls its entire warp. Ray Multicast is a *static* rebalancing: the N
indexed primitives are split evenly into k sets and placed into k
non-overlapping sub-spaces along one axis (after normalising coordinates
to the unit cube); each logical ray is duplicated into k rays, one per
sub-space, so no thread handles more than ~N/k intersections.

The parameter k is chosen by the paper's cost model (Equations 3-5):
``C = (1-w)·C_R + w·C_I`` with ``C_R = |R|·k·log|N|`` (k-fold ray-casting
cost) and ``C_I = |N|·|R|·s/k`` (per-thread intersection cost), where the
selectivity *s* is estimated by a brute-force trial run on a small sample.
k is restricted to powers of two for warp efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import Boxes
from repro.geometry.dtypes import promote64
from repro.geometry.morton import morton_order
from repro.geometry.predicates import join_intersects_box

#: Weight of the intersection cost in Equation 3. Intersections are far
#: more expensive than traversal steps under warp-max latency; 0.99
#: reproduces the paper's predicted k (16-32 on USCensus-like workloads).
DEFAULT_W = 0.99

#: Per-side sample size of the selectivity trial run.
DEFAULT_SAMPLE = 512

#: k is a power of two no larger than this (paper sweeps up to 512).
K_MAX = 512


def predict_k(
    n_prims: int,
    n_rays: int,
    est_total_intersections: float,
    w: float = DEFAULT_W,
    k_max: int = K_MAX,
) -> int:
    """Exhaustively minimise Equation 3 over powers of two.

    ``est_total_intersections`` is ``|N|·|R|·s`` — the trial-run estimate.
    """
    if n_prims <= 0 or n_rays <= 0:
        return 1
    log_n = np.log2(max(n_prims, 2))
    best_k, best_cost = 1, np.inf
    k = 1
    while k <= k_max:
        cost_rays = (1.0 - w) * n_rays * k * log_n
        cost_isect = w * est_total_intersections / k
        cost = cost_rays + cost_isect
        if cost < best_cost:
            best_cost, best_k = cost, k
        k *= 2
    return best_k


def estimate_selectivity(
    r: Boxes, s: Boxes, rng: np.random.Generator, sample: int = DEFAULT_SAMPLE
) -> tuple[float, float]:
    """Sampled brute-force selectivity estimate (paper §3.4).

    Returns ``(s_hat, trial_pairs)`` where ``s_hat`` estimates the
    fraction of intersecting pairs and ``trial_pairs`` is the number of
    brute-force pair tests performed (the prediction cost depends only on
    the sample counts, not the data distribution — §6.5).
    """
    n_r = min(sample, len(r))
    n_s = min(sample, len(s))
    if n_r == 0 or n_s == 0:
        return 0.0, 0.0
    ri = rng.choice(len(r), size=n_r, replace=False)
    si = rng.choice(len(s), size=n_s, replace=False)
    hits = len(join_intersects_box(r[ri], s[si])[0])
    return hits / (n_r * n_s), float(n_r * n_s)


class MulticastLayout:
    """The k-sub-space placement of a primitive set.

    Primitive coordinates are scaled into the unit cube (using ``lo``/
    ``hi``, which must also cover every ray endpoint so rays stay inside
    their sub-space) and offset along ``axis`` by the primitive's
    sub-space id. Assignment is round-robin over the Morton order, so
    each sub-space receives a spatially uniform 1/k-th of the primitives —
    the "evenly split" of the paper.

    Primitive ids are preserved: sub-space placement moves boxes, it never
    renumbers them.
    """

    def __init__(
        self,
        prims: Boxes,
        k: int,
        lo: np.ndarray,
        hi: np.ndarray,
        axis: int = 0,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.axis = int(axis)
        self.lo = promote64(lo)
        span = promote64(hi) - self.lo
        self.span = np.where(span <= 0.0, 1.0, span)

        centers = np.clip(promote64(prims.centers()), lo, hi)
        rank = np.empty(len(prims), dtype=np.int64)
        rank[morton_order(centers, self.lo, self.lo + self.span)] = np.arange(len(prims))
        self.subspace = rank % self.k

        mins_t = self._normalize(prims.mins)
        maxs_t = self._normalize(prims.maxs)
        offset = promote64(self.subspace)
        mins_t[:, self.axis] += offset
        maxs_t[:, self.axis] += offset
        # Conservative expansion: normalisation and the sub-space offset
        # round coordinates (absolute error grows with the offset k under
        # float32), so sub-space boxes are inflated by a safe margin. This
        # can only *add* candidates — the IS shader re-verifies every pair
        # exactly in original coordinates, and the sub-space id filter
        # removes cross-boundary duplicates.
        expand = 16.0 * np.finfo(prims.dtype).eps * max(self.k, 1)
        finite = np.isfinite(mins_t) & np.isfinite(maxs_t)
        mins_t = np.where(finite, mins_t - expand, mins_t)
        maxs_t = np.where(finite, maxs_t + expand, maxs_t)
        self.boxes_t = Boxes(mins_t, maxs_t, dtype=prims.dtype)

    def _normalize(self, coords: np.ndarray) -> np.ndarray:
        return (promote64(coords) - self.lo) / self.span

    def replicate_segments(
        self, p1: np.ndarray, p2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Duplicate m segments into m·k sub-space copies (query-major:
        row ``q*k + j`` is copy j of segment q, so the k copies of one
        logical ray land in the same warp)."""
        a = self._normalize(np.asarray(p1))
        b = self._normalize(np.asarray(p2))
        m, d = a.shape
        a_rep = np.repeat(a, self.k, axis=0)
        b_rep = np.repeat(b, self.k, axis=0)
        offsets = np.tile(promote64(np.arange(self.k)), m)
        a_rep[:, self.axis] += offsets
        b_rep[:, self.axis] += offsets
        return a_rep, b_rep

    def ray_copy_ids(self, n_segments: int) -> tuple[np.ndarray, np.ndarray]:
        """``(logical_ray, copy)`` for each replicated row."""
        rows = np.arange(n_segments * self.k, dtype=np.int64)
        return rows // self.k, rows % self.k
