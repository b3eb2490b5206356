"""The per-axis join kernels against the ``(n_r, n_s, d)`` +
``.all(axis=-1)`` formulation they replaced, kept here as the reference.

Coordinates come from a tiny value set with NaN in it, so zero-extent
boxes (min == max), degenerate boxes (min > max), shared edges and NaN
coordinates are all common. The reference and the kernels must agree
pair for pair, in canonical order, for every block size.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.multicast import estimate_selectivity
from repro.geometry.boxes import Boxes
from repro.geometry.predicates import (
    join_contains_box,
    join_contains_point,
    join_intersects_box,
)

VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0, np.nan)


def ref_contains_point(boxes: Boxes, pts: np.ndarray) -> np.ndarray:
    lo_ok = boxes.mins[:, None, :] <= pts[None, :, :]
    hi_ok = pts[None, :, :] <= boxes.maxs[:, None, :]
    return (lo_ok & hi_ok).all(axis=-1)


def ref_contains_box(r: Boxes, s: Boxes) -> np.ndarray:
    a = r.mins[:, None, :] <= s.mins[None, :, :]
    b = s.mins[None, :, :] < s.maxs[None, :, :]
    c = s.maxs[None, :, :] <= r.maxs[:, None, :]
    return (a & b & c).all(axis=-1)


def ref_intersects_box(r: Boxes, s: Boxes) -> np.ndarray:
    a = r.mins[:, None, :] <= s.maxs[None, :, :]
    b = r.maxs[:, None, :] >= s.mins[None, :, :]
    live_r = r.mins[:, None, :] <= r.maxs[:, None, :]
    live_s = s.mins[None, :, :] <= s.maxs[None, :, :]
    return (a & b & live_r & live_s).all(axis=-1)


def ref_pairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(r_idx, s_idx)`` of a boolean (r, s) matrix, query-major."""
    s_idx, r_idx = np.nonzero(matrix.T)
    return r_idx, s_idx


def coords(draw, n: int, d: int, dtype) -> np.ndarray:
    flat = draw(st.lists(st.sampled_from(VALUES), min_size=n * d, max_size=n * d))
    return np.array(flat, dtype=dtype).reshape(n, d)


@st.composite
def join_inputs(draw):
    d = draw(st.sampled_from((2, 3)))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    n_r = draw(st.integers(0, 12))
    n_s = draw(st.integers(0, 12))
    r = Boxes(coords(draw, n_r, d, dtype), coords(draw, n_r, d, dtype))
    s = Boxes(coords(draw, n_s, d, dtype), coords(draw, n_s, d, dtype))
    pts = coords(draw, n_s, d, dtype)
    block = draw(st.integers(1, 16))
    return r, s, pts, block


def assert_pairs_equal(got, want):
    assert got[0].dtype == np.int64 and got[1].dtype == np.int64
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


class TestAgainstAllAxisReference:
    @given(join_inputs())
    @settings(max_examples=300, deadline=None)
    def test_contains_point(self, inputs):
        r, _, pts, block = inputs
        assert_pairs_equal(
            join_contains_point(r, pts, block=block), ref_pairs(ref_contains_point(r, pts))
        )

    @given(join_inputs())
    @settings(max_examples=300, deadline=None)
    def test_contains_box(self, inputs):
        r, s, _, block = inputs
        assert_pairs_equal(
            join_contains_box(r, s, block=block), ref_pairs(ref_contains_box(r, s))
        )

    @given(join_inputs())
    @settings(max_examples=300, deadline=None)
    def test_intersects_box(self, inputs):
        r, s, _, block = inputs
        assert_pairs_equal(
            join_intersects_box(r, s, block=block), ref_pairs(ref_intersects_box(r, s))
        )


def ref_estimate_selectivity(r: Boxes, s: Boxes, rng, sample: int):
    """The §3.4 estimator over the reference kernel: same draws."""
    n_r = min(sample, len(r))
    n_s = min(sample, len(s))
    if n_r == 0 or n_s == 0:
        return 0.0, 0.0
    ri = rng.choice(len(r), size=n_r, replace=False)
    si = rng.choice(len(s), size=n_s, replace=False)
    hits = int(ref_intersects_box(r[ri], s[si]).sum())
    return hits / (n_r * n_s), float(n_r * n_s)


@given(join_inputs(), st.integers(1, 16), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_estimate_selectivity_unchanged(inputs, sample, seed):
    r, s, _, _ = inputs
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = estimate_selectivity(r, s, rng, sample=sample)
    want = ref_estimate_selectivity(r, s, ref_rng, sample)
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
