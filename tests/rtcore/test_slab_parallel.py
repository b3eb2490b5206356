"""The node test's parallel-axis handling against the formulation it replaced.

``_ref_slab_axes``/``_ref_slab_hit`` and ``_RefRaySlab`` below are verbatim
copies of the slab test as the kernel ran it before a zero-direction axis
became an inside mask: every parallel axis went through ``np.where`` over
all pairs as a ``(-inf, +inf)`` or empty interval, and the axes folded with
``np.fmax``/``np.fmin``. :class:`repro.rtcore.kernel.RaySlab` must return
the same hit mask bit for bit on every block shape the kernel passes it,
and must fold in the coordinate dtype.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.boxes import Boxes
from repro.geometry.ray import POINT_RAY_TMAX, Rays, box_live
from repro.rtcore import kernel
from repro.rtcore.bvh import BVH
from repro.rtcore.sah import SAHBVH
from repro.rtcore.stats import TraversalStats

from tests.conftest import random_boxes

# -- frozen reference ----------------------------------------------------------


def _ref_slab_axes(origins, invs, parallels, box_mins, box_maxs, enter_fold, exit_fold):
    t_enter = t_exit = None
    for o, inv, par, lo, hi in zip(origins, invs, parallels, box_mins, box_maxs):
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


def _ref_slab_hit(t_enter, t_exit, tmins, tmaxs, live):
    if isinstance(tmins, np.ndarray):
        hit = live & (t_exit >= tmins)
        hit &= t_exit >= 0.0
    else:
        hit = live & (t_exit >= max(tmins, 0.0))
    hit &= t_enter <= t_exit
    hit &= t_enter <= tmaxs
    return hit


def _ref_uniform(a):
    return a[0] if len(a) and (a == a[0]).all() else a


def _ref_at(a, rows):
    return a[rows] if isinstance(a, np.ndarray) else a


class _RefRaySlab:
    def __init__(self, origins, dirs, tmins, tmaxs):
        self.origins = np.ascontiguousarray(origins.T)
        invs, self.inv_rows, self.parallels = [], [], []
        with np.errstate(divide="ignore", over="ignore"):
            for col in dirs.T:
                par = col == 0.0
                every = par.all()
                self.inv_rows.append(None if every else len(invs))
                self.parallels.append(True if every else (par if par.any() else None))
                if not every:
                    invs.append(1.0 / col)
        self.invs = np.array(invs) if invs else None
        if None not in self.inv_rows:
            self.inv_rows = None
        self.masks = [p for p in self.parallels if isinstance(p, np.ndarray)]
        self.tmins = _ref_uniform(tmins)
        self.tmaxs = _ref_uniform(tmaxs)

    def test(self, rows, box_lo, box_hi, live):
        invs = None if self.invs is None else self.invs.take(rows, axis=1)
        if self.inv_rows is not None:
            invs = [None if j is None else invs[j] for j in self.inv_rows]
        pars = self.parallels
        if self.masks:
            pars = [p if p is None or p is True else p[rows] for p in pars]
        t_enter, t_exit = _ref_slab_axes(
            self.origins.take(rows, axis=1),
            invs,
            pars,
            box_lo,
            box_hi,
            enter_fold=np.fmax,
            exit_fold=np.fmin,
        )
        return _ref_slab_hit(
            t_enter, t_exit, _ref_at(self.tmins, rows), _ref_at(self.tmaxs, rows), live
        )


# -- strategies ----------------------------------------------------------------

#: Coordinates drawn from a small palette, so origins land exactly on slab
#: faces, boxes come out zero-extent or inverted, and NaN/+-inf show up.
COORDS = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf, -np.inf, np.nan]
#: Direction components: zero (either sign), ordinary, huge, and a
#: subnormal whose reciprocal overflows to inf (a NaN ``t`` on a face;
#: 1e-45 in float32, 5e-324 in float64, where it rounds to 0 in float32).
DIRS = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e30, 1e-45, -1e-45, 5e-324]
TMINS = [0.0, -1.0, 0.5, -np.inf, np.nan]
TMAXS = [POINT_RAY_TMAX, 0.0, 1.0, 2.0, np.inf, np.nan]
#: What makes a ray parallel: point rays (+x, so one parallel axis in 2-D
#: and two in 3-D), zero-direction rays (every axis parallel, e.g. the
#: anti-diagonal of a zero-extent rect), per-ray masks, or no zeros.
RAY_KINDS = ["point", "zero", "mixed", "none"]
#: The box blocks the kernel passes: one structure's root, several fused
#: roots, sibling pairs, and rows-aligned boxes.
SHAPES = ["root", "fused", "pairs", "aligned"]


def _floats(draw, pool, shape, dtype):
    n = int(np.prod(shape))
    vals = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(vals, dtype=dtype).reshape(shape)


@st.composite
def slab_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(RAY_KINDS))
    origins = _floats(draw, COORDS, (m, d), dtype)
    if kind == "point":
        dirs = np.zeros((m, d), dtype=dtype)
        dirs[:, draw(st.integers(0, d - 1))] = 1.0
    elif kind == "zero":
        dirs = _floats(draw, [0.0, -0.0], (m, d), dtype)
    elif kind == "mixed":
        dirs = _floats(draw, DIRS, (m, d), dtype)
    else:
        dirs = _floats(draw, [v for v in DIRS if v != 0.0], (m, d), dtype)
    if draw(st.booleans()):
        tmins = np.full(m, draw(st.sampled_from(TMINS)), dtype=dtype)
        tmaxs = np.full(m, draw(st.sampled_from(TMAXS)), dtype=dtype)
    else:
        tmins = _floats(draw, TMINS, (m,), dtype)
        tmaxs = _floats(draw, TMAXS, (m,), dtype)

    shape = draw(st.sampled_from(SHAPES))
    if shape == "root":
        rows, block = np.arange(m), (1,)
    elif shape == "fused":
        rows, block = np.arange(m), (draw(st.integers(2, 4)), 1)
    else:
        p = draw(st.integers(1, 8))
        rows = np.array(draw(st.lists(st.integers(0, m - 1), min_size=p, max_size=p)))
        block = (2, p) if shape == "pairs" else (p,)
    lo = _floats(draw, COORDS, (d,) + block, dtype)
    hi = _floats(draw, COORDS, (d,) + block, dtype)
    return (origins, dirs, tmins, tmaxs), (rows, lo, hi, box_live(lo, hi))


def _both(rays, launch):
    with np.errstate(all="ignore"):
        got = kernel.RaySlab(*rays).test(*launch)
        want = _RefRaySlab(*rays).test(*launch)
    return got, want


# -- exactness -----------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(slab_cases())
def test_hit_mask_matches_reference(case):
    got, want = _both(*case)
    assert got.dtype == np.bool_
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "origin,lo,hi",
    [
        # The parallel (y) axis closed at both faces: on lo, on hi.
        ((0.5, 1.0), (0.0, 1.0), (1.0, 2.0)),
        ((0.5, 2.0), (0.0, 1.0), (1.0, 2.0)),
        # A zero-extent slab with the origin on it.
        ((0.5, 1.0), (0.0, 1.0), (1.0, 1.0)),
    ],
)
@pytest.mark.parametrize("per_ray", [False, True])
def test_point_ray_on_a_parallel_face_hits(dtype, origin, lo, hi, per_ray):
    """A +x ray whose origin is on a y face hits, whether y is parallel
    for every ray of the launch or (``per_ray``, beside a +y ray from the
    same origin) only for some."""
    dirs = [(1.0, 0.0), (0.0, 1.0)] if per_ray else [(1.0, 0.0)]
    m = len(dirs)
    rays = (
        np.array([origin] * m, dtype=dtype),
        np.array(dirs, dtype=dtype),
        np.zeros(m, dtype),
        np.full(m, POINT_RAY_TMAX, dtype),
    )
    launch = (
        np.arange(m),
        np.array(lo, dtype=dtype)[:, None],
        np.array(hi, dtype=dtype)[:, None],
        np.array([True]),
    )
    got, want = _both(rays, launch)
    assert want[0]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "origin,direction",
    [
        # NaN origin on the x axis: t1 = t2 = NaN.
        ((np.nan, 0.5), (1.0, 0.0)),
        # Subnormal x direction (1/dir = inf) with the origin on a
        # zero-extent x slab: 0 * inf = NaN at both faces.
        ((1.0, 0.5), ("subnormal", 0.0)),
    ],
)
def test_nan_fold_opens_at_an_inside_parallel_axis(dtype, origin, direction):
    """A NaN ``t`` fold next to an inside parallel axis reads as the
    unbounded interval, as the parallel axis's ``(-inf, +inf)`` term
    made it, so the ray hits."""
    o = np.array([origin], dtype=dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    dirs = np.array([[tiny if c == "subnormal" else c for c in direction]], dtype=dtype)
    rays = (o, dirs, np.zeros(1, dtype), np.full(1, POINT_RAY_TMAX, dtype))
    launch = (
        np.arange(1),
        np.array([1.0, 0.0], dtype=dtype)[:, None],
        np.array([1.0, 1.0], dtype=dtype)[:, None],
        np.array([True]),
    )
    got, want = _both(rays, launch)
    assert want.tolist() == [True]
    assert np.array_equal(got, want)


# -- coordinate dtype ----------------------------------------------------------


def _fold_dtypes(monkeypatch, bvh, rays):
    """The dtypes of every ``(t_enter, t_exit)`` the launch's node tests
    fold into."""
    seen = []
    real = kernel.slab_hit

    def spy(t_enter, t_exit, *args):
        seen.append((np.result_type(t_enter), np.result_type(t_exit)))
        return real(t_enter, t_exit, *args)

    monkeypatch.setattr(kernel, "slab_hit", spy)
    bvh.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, TraversalStats(len(rays)))
    assert seen
    return set(seen)


@pytest.mark.parametrize("cls", [BVH, SAHBVH])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["point", "mixed"])
def test_float32_launch_folds_in_float32(monkeypatch, rng, cls, d, kind):
    boxes = random_boxes(rng, 500, d=d, dtype=np.float32)
    pts = boxes.mins[:200] + np.float32(0.5)
    if kind == "point":
        rays = Rays.point_rays(pts)
    else:
        # Anti-diagonals of rects, every third one zero-extent on an
        # axis: some rays parallel to it, the others not.
        ends = pts + np.float32(3.0)
        ends[::3, 1] = pts[::3, 1]
        rays = Rays.segment_rays(pts, ends)
        assert 0 < (rays.dirs[:, 1] == 0).sum() < len(rays)
    assert _fold_dtypes(monkeypatch, cls(boxes, leaf_size=2), rays) == {
        (np.dtype(np.float32), np.dtype(np.float32))
    }


def test_liveness_is_not_written():
    """The hit mask starts from ``live``; the stored root liveness the
    root step passes must come back unchanged."""
    boxes = Boxes(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
    live = np.array([True])
    rays = Rays.point_rays(np.array([[5.0, 5.0], [0.5, 0.5]]))
    slab = kernel.RaySlab(rays.origins, rays.dirs, rays.tmins, rays.tmaxs)
    lo, hi = boxes.mins.T[:, :1], boxes.maxs.T[:, :1]
    with np.errstate(all="ignore"):
        hit = slab.test(np.arange(2), lo, hi, live)
    assert hit.tolist() == [False, True]
    assert live.tolist() == [True]
