"""Predicate tests (paper Definitions 1-3), including hypothesis
properties against naive per-pair implementations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.boxes import Boxes
from repro.geometry.predicates import (
    join_contains_box,
    join_contains_point,
    join_intersects_box,
    pairwise_box_contains_box,
    pairwise_box_contains_point,
    pairwise_box_intersects_box,
)

coords = st.floats(-100, 100, allow_nan=False, width=64)


def box_strategy():
    return st.tuples(coords, coords, st.floats(0, 10), st.floats(0, 10)).map(
        lambda t: (np.array([t[0], t[1]]), np.array([t[0] + t[2], t[1] + t[3]]))
    )


class TestContainsPoint:
    def test_inside(self):
        assert pairwise_box_contains_point(
            np.array([0.0, 0.0]), np.array([2.0, 2.0]), np.array([1.0, 1.0])
        )

    def test_boundary_is_closed(self):
        assert pairwise_box_contains_point(
            np.array([0.0, 0.0]), np.array([2.0, 2.0]), np.array([2.0, 0.0])
        )

    def test_outside(self):
        assert not pairwise_box_contains_point(
            np.array([0.0, 0.0]), np.array([2.0, 2.0]), np.array([2.1, 1.0])
        )

    def test_degenerate_box_contains_nothing(self):
        assert not pairwise_box_contains_point(
            np.array([np.inf, np.inf]), np.array([-np.inf, -np.inf]), np.array([0.0, 0.0])
        )

    def test_batch_shapes(self):
        mins = np.zeros((4, 2))
        maxs = np.ones((4, 2))
        pts = np.array([[0.5, 0.5], [2.0, 0.5], [1.0, 1.0], [-0.1, 0.5]])
        assert list(pairwise_box_contains_point(mins, maxs, pts)) == [
            True,
            False,
            True,
            False,
        ]


class TestContainsBox:
    def test_proper_containment(self):
        assert pairwise_box_contains_box(
            np.array([0.0, 0.0]), np.array([10.0, 10.0]),
            np.array([1.0, 1.0]), np.array([2.0, 2.0]),
        )

    def test_equal_boxes_contained(self):
        # Definition 2 allows r == s (closed outer comparisons) as long as
        # s has positive extent.
        assert pairwise_box_contains_box(
            np.array([0.0, 0.0]), np.array([1.0, 1.0]),
            np.array([0.0, 0.0]), np.array([1.0, 1.0]),
        )

    def test_zero_extent_s_never_contained(self):
        # Definition 2 requires s.min < s.max strictly.
        assert not pairwise_box_contains_box(
            np.array([0.0, 0.0]), np.array([10.0, 10.0]),
            np.array([5.0, 5.0]), np.array([5.0, 6.0]),
        )

    def test_partial_overlap_not_contained(self):
        assert not pairwise_box_contains_box(
            np.array([0.0, 0.0]), np.array([10.0, 10.0]),
            np.array([9.0, 9.0]), np.array([11.0, 10.0]),
        )


class TestIntersectsBox:
    def test_overlap(self):
        assert pairwise_box_intersects_box(
            np.array([0.0, 0.0]), np.array([2.0, 2.0]),
            np.array([1.0, 1.0]), np.array([3.0, 3.0]),
        )

    def test_touching_edge_intersects(self):
        assert pairwise_box_intersects_box(
            np.array([0.0, 0.0]), np.array([1.0, 1.0]),
            np.array([1.0, 0.0]), np.array([2.0, 1.0]),
        )

    def test_disjoint(self):
        assert not pairwise_box_intersects_box(
            np.array([0.0, 0.0]), np.array([1.0, 1.0]),
            np.array([2.0, 2.0]), np.array([3.0, 3.0]),
        )

    def test_containment_is_intersection(self):
        assert pairwise_box_intersects_box(
            np.array([0.0, 0.0]), np.array([10.0, 10.0]),
            np.array([4.0, 4.0]), np.array([5.0, 5.0]),
        )

    def test_degenerate_never_intersects(self):
        assert not pairwise_box_intersects_box(
            np.array([np.inf, np.inf]), np.array([-np.inf, -np.inf]),
            np.array([0.0, 0.0]), np.array([1e12, 1e12]),
        )

    @given(box_strategy(), box_strategy())
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, b1, b2):
        f = pairwise_box_intersects_box
        assert f(b1[0], b1[1], b2[0], b2[1]) == f(b2[0], b2[1], b1[0], b1[1])

    @given(box_strategy(), box_strategy())
    @settings(max_examples=200, deadline=None)
    def test_containment_implies_intersection(self, b1, b2):
        if pairwise_box_contains_box(b1[0], b1[1], b2[0], b2[1]):
            assert pairwise_box_intersects_box(b1[0], b1[1], b2[0], b2[1])


class TestJoins:
    def _naive_pairs(self, pred, r, s):
        out = []
        for i in range(len(r)):
            for j in range(len(s)):
                if pred(i, j):
                    out.append((i, j))
        # Canonical query-major order: by query index j, then data index i.
        out.sort(key=lambda t: (t[1], t[0]))
        return out

    def test_join_contains_point_matches_naive(self, rng):
        from tests.conftest import random_boxes, random_points

        boxes = random_boxes(rng, 60)
        pts = random_points(rng, 40)
        got = list(zip(*[a.tolist() for a in join_contains_point(boxes, pts)]))
        naive = self._naive_pairs(
            lambda i, j: bool(
                pairwise_box_contains_point(boxes.mins[i], boxes.maxs[i], pts[j])
            ),
            boxes,
            pts,
        )
        assert got == naive

    def test_join_intersects_matches_naive(self, rng):
        from tests.conftest import random_boxes

        r = random_boxes(rng, 50)
        s = random_boxes(rng, 30)
        got = list(zip(*[a.tolist() for a in join_intersects_box(r, s)]))
        naive = self._naive_pairs(
            lambda i, j: bool(
                pairwise_box_intersects_box(r.mins[i], r.maxs[i], s.mins[j], s.maxs[j])
            ),
            r,
            s,
        )
        assert got == naive

    def test_join_contains_box_matches_naive(self, rng):
        from tests.conftest import random_boxes

        r = random_boxes(rng, 50, max_extent=20.0)
        s = random_boxes(rng, 30, max_extent=2.0)
        got = list(zip(*[a.tolist() for a in join_contains_box(r, s)]))
        naive = self._naive_pairs(
            lambda i, j: bool(
                pairwise_box_contains_box(r.mins[i], r.maxs[i], s.mins[j], s.maxs[j])
            ),
            r,
            s,
        )
        assert got == naive

    def test_join_blocking_invariant(self, rng):
        """Results must not depend on the block size."""
        from tests.conftest import random_boxes

        r = random_boxes(rng, 123)
        s = random_boxes(rng, 77)
        a = join_intersects_box(r, s, block=7)
        b = join_intersects_box(r, s, block=4096)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_join_empty_inputs(self):
        e = Boxes.empty(2)
        r, s = join_intersects_box(e, e)
        assert len(r) == 0 and len(s) == 0
