"""Rays and the ray-AABB slab test (paper §2.2, Figure 1).

A ray is ``R(t) = O + t*d`` restricted to a search interval
``[tmin, tmax]`` (Equation 1). The slab test reports a hit in exactly the
paper's two cases:

- Case 1: the origin is outside the AABB and the boundary crossing
  parameter satisfies ``tmin <= t_hit <= tmax``;
- Case 2: the origin is inside the AABB (for any direction), provided the
  parameter interval overlaps the box interval — which it always does for
  ``tmin = 0``.

Both fall out of the interval formulation: a hit occurs iff
``[t_enter, t_exit] ∩ [tmin, tmax] ≠ ∅`` with ``t_exit >= 0``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import as_coord_array

#: The paper simulates a point with a "very short ray" by setting tmax to
#: the smallest representable positive float (§3.1). FLT_MIN of the f32
#: hardware path; any tiny positive value works for the interval test.
POINT_RAY_TMAX = float(np.finfo(np.float32).tiny)


class Rays:
    """A batch of *m* rays: origins/dirs ``(m, d)``, tmins/tmaxs ``(m,)``."""

    __slots__ = ("origins", "dirs", "tmins", "tmaxs")

    def __init__(self, origins, dirs, tmins=0.0, tmaxs=1.0, dtype=None):
        self.origins = as_coord_array(origins, dtype)
        self.dirs = as_coord_array(dirs, self.origins.dtype)
        if self.origins.shape != self.dirs.shape:
            raise ValueError("origins/dirs shape mismatch")
        m = self.origins.shape[0]
        self.tmins = np.broadcast_to(
            np.asarray(tmins, dtype=self.origins.dtype), (m,)
        ).copy()
        self.tmaxs = np.broadcast_to(
            np.asarray(tmaxs, dtype=self.origins.dtype), (m,)
        ).copy()

    def __len__(self) -> int:
        return self.origins.shape[0]

    @property
    def ndim(self) -> int:
        return self.origins.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.origins.dtype

    def __repr__(self) -> str:
        return f"Rays(m={len(self)}, d={self.ndim}, dtype={self.dtype})"

    @classmethod
    def point_rays(cls, points, dtype=None) -> "Rays":
        """Short rays simulating point queries (paper §3.1).

        The origin is the query point, the direction is arbitrary (+x here),
        and ``tmax`` is the smallest positive float so a Case-1 boundary
        crossing can essentially never fall inside the interval; Case-2
        origin-inside hits always register.
        """
        pts = as_coord_array(points, dtype)
        dirs = np.zeros_like(pts)
        dirs[:, 0] = 1.0
        return cls(pts, dirs, tmins=0.0, tmaxs=POINT_RAY_TMAX)

    @classmethod
    def segment_rays(cls, p1, p2, dtype=None) -> "Rays":
        """Rays simulating line segments with ``t in [0, 1]`` (Equation 2)."""
        a = as_coord_array(p1, dtype)
        b = as_coord_array(p2, a.dtype)
        return cls(a, b - a, tmins=0.0, tmaxs=1.0)

    def __getitem__(self, idx) -> "Rays":
        return Rays(
            np.atleast_2d(self.origins[idx]),
            np.atleast_2d(self.dirs[idx]),
            np.atleast_1d(self.tmins[idx]),
            np.atleast_1d(self.tmaxs[idx]),
        )


def fmax_first(acc, x):
    """``np.fmax`` that keeps ``acc`` on ties and when ``x`` is NaN.

    This is the rule ``np.fmax.reduce`` applies along an axis; the
    elementwise ufunc leaves signed-zero ties (``-0.0`` vs ``0.0``) to
    its SIMD loop, which may pick either operand.
    """
    return np.where((acc >= x) | np.isnan(x), acc, x)


def fmin_first(acc, x):
    """``np.fmin`` counterpart of :func:`fmax_first`."""
    return np.where((acc <= x) | np.isnan(x), acc, x)


def slab_axes(
    origins, invs, parallels, box_mins, box_maxs,
    enter_fold=fmax_first, exit_fold=fmin_first,
):
    """The slab test over per-axis columns: ``(t_enter, t_exit)``.

    Each of the first five arguments is a sequence with one entry per
    axis: origin coordinates, reciprocal directions, zero-direction flags
    and box bounds (all broadcast-compatible). ``parallels[a]`` is
    ``None`` when no ray has a zero component on axis *a*, ``True`` when
    every ray does (``invs[a]`` is then unused), and a boolean mask
    otherwise. The axes fold left to right with ``enter_fold`` /
    ``exit_fold``; the defaults follow the tie rule of a reduction over
    the coordinate axis, so the results are bit-identical to it. Plain
    ``np.fmax``/``np.fmin`` agree in value (signed zeros aside), which is
    all a hit test needs. Callers run it under
    ``np.errstate(invalid="ignore", over="ignore")``: overflow to inf in
    the t products is the correct saturating behaviour for near-parallel
    rays (the traversal kernel enters that state once per launch).
    """
    t_enter = t_exit = None
    for o, inv, par, lo, hi in zip(origins, invs, parallels, box_mins, box_maxs):
        # A ray parallel to a slab (zero direction component) never
        # enters or leaves it: the axis contributes (-inf, +inf) when the
        # origin lies within the slab (closed) and an empty interval
        # otherwise. Handling this explicitly avoids the 0 * inf = NaN
        # corner when the origin sits exactly on a slab boundary.
        if par is True:
            inside = (lo <= o) & (o <= hi)
            near = np.where(inside, -np.inf, np.inf)
            far = np.where(inside, np.inf, -np.inf)
        else:
            t1 = (lo - o) * inv
            t2 = (hi - o) * inv
            near = np.fmin(t1, t2)
            far = np.fmax(t1, t2)
            if par is not None and par.any():
                inside = (lo <= o) & (o <= hi)
                near = np.where(par, np.where(inside, -np.inf, np.inf), near)
                far = np.where(par, np.where(inside, np.inf, -np.inf), far)
        t_enter = near if t_enter is None else enter_fold(t_enter, near)
        t_exit = far if t_exit is None else exit_fold(t_exit, far)
    return t_enter, t_exit


def slab_hit(t_enter, t_exit, tmins, tmaxs, live):
    """Hit mask of a slab interval against the ray's ``[tmin, tmax]``.

    ``live`` is the box liveness (``min <= max`` on every axis):
    degenerate boxes produce an empty slab interval and never hit — the
    per-axis min/max ordering would silently "un-invert" such a box. A
    scalar ``tmins`` (one interval for every ray) folds the
    ``t_exit >= 0`` test into its own compare.
    """
    if isinstance(tmins, np.ndarray):
        hit = live & (t_exit >= tmins)
        hit &= t_exit >= 0.0
    else:
        hit = live & (t_exit >= max(tmins, 0.0))
    hit &= t_enter <= t_exit
    hit &= t_enter <= tmaxs
    return hit


def box_live(box_mins, box_maxs):
    """``min <= max`` on every axis, from per-axis bound columns."""
    live = box_mins[0] <= box_maxs[0]
    for lo, hi in zip(box_mins[1:], box_maxs[1:]):
        live &= lo <= hi
    return live


def ray_aabb_interval(
    origins: np.ndarray,
    dirs: np.ndarray,
    tmins: np.ndarray,
    tmaxs: np.ndarray,
    box_mins: np.ndarray,
    box_maxs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slab test returning ``(t_enter, t_exit, hit)`` for aligned pairs.

    ``t_enter`` is the box entry parameter (negative when the origin is
    inside the box — Case 2); hardware reports the committed hit at
    ``max(t_enter, tmin)``. See :func:`ray_aabb_hit` for the hit semantics.
    The coordinate axis is unrolled (:func:`slab_axes`).
    """
    d = dirs.shape[-1]
    dir_cols = [dirs[..., a] for a in range(d)]
    with np.errstate(divide="ignore", over="ignore"):
        invs = [1.0 / c for c in dir_cols]
    parallels = [c == 0.0 for c in dir_cols]
    o = [origins[..., a] for a in range(d)]
    lo = [box_mins[..., a] for a in range(d)]
    hi = [box_maxs[..., a] for a in range(d)]
    with np.errstate(invalid="ignore", over="ignore"):
        t_enter, t_exit = slab_axes(o, invs, parallels, lo, hi)
    hit = slab_hit(t_enter, t_exit, tmins, tmaxs, box_live(lo, hi))
    return t_enter, t_exit, hit


def ray_aabb_hit(
    origins: np.ndarray,
    dirs: np.ndarray,
    tmins: np.ndarray,
    tmaxs: np.ndarray,
    box_mins: np.ndarray,
    box_maxs: np.ndarray,
) -> np.ndarray:
    """Vectorized slab test on aligned ray/box pairs.

    All inputs are broadcast-compatible; coordinate arrays have a trailing
    axis of size d. Returns a boolean hit mask. Zero direction components
    are handled explicitly: a ray parallel to a slab hits iff its origin
    lies within that slab (closed comparison). Degenerate boxes
    (min > max) produce an empty slab interval and never hit — the
    per-axis min/max ordering would silently "un-invert" such a box, so
    liveness is tested explicitly inside :func:`ray_aabb_interval`.
    """
    return ray_aabb_interval(origins, dirs, tmins, tmaxs, box_mins, box_maxs)[2]
