"""Ray Multicast unit tests (paper §3.4): sub-space layout invariants,
ray replication, k prediction, selectivity estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.multicast import (
    DEFAULT_W,
    MulticastLayout,
    estimate_selectivity,
    predict_k,
)
from repro.geometry.boxes import Boxes
from repro.geometry.segment import anti_diagonal
from tests.conftest import random_boxes


class TestLayout:
    def _layout(self, rng, n=200, k=8, axis=0):
        boxes = random_boxes(rng, n, domain=10.0)
        lo, hi = boxes.union_bounds()
        return boxes, MulticastLayout(boxes, k, lo, hi, axis=axis)

    def test_even_split(self, rng):
        _, layout = self._layout(rng, n=256, k=8)
        counts = np.bincount(layout.subspace, minlength=8)
        assert counts.tolist() == [32] * 8

    def test_uneven_split_balanced(self, rng):
        _, layout = self._layout(rng, n=101, k=4)
        counts = np.bincount(layout.subspace, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_subspaces_disjoint_along_axis(self, rng):
        _, layout = self._layout(rng, k=4)
        t = layout.boxes_t
        # Box j's extent must (up to the conservative epsilon) lie inside
        # [subspace, subspace + 1] on the layout axis.
        eps = 1e-3
        assert (t.mins[:, 0] >= layout.subspace - eps).all()
        assert (t.maxs[:, 0] <= layout.subspace + 1 + eps).all()

    def test_prim_ids_preserved(self, rng):
        boxes, layout = self._layout(rng, k=4)
        # Normalised y center order must match original y center order
        # (same primitive row ordering, only coordinates transformed).
        cy = boxes.centers()[:, 1]
        ty = layout.boxes_t.centers()[:, 1]
        assert np.array_equal(np.argsort(cy, kind="stable"), np.argsort(ty, kind="stable"))

    def test_k1_single_subspace(self, rng):
        _, layout = self._layout(rng, k=1)
        assert (layout.subspace == 0).all()

    def test_axis_parameter(self, rng):
        _, layout = self._layout(rng, k=4, axis=1)
        t = layout.boxes_t
        eps = 1e-3
        assert (t.mins[:, 1] >= layout.subspace - eps).all()
        assert t.maxs[:, 0].max() <= 1 + eps

    def test_degenerate_prims_stay_degenerate(self, rng):
        boxes = random_boxes(rng, 50, domain=10.0)
        boxes.degenerate(np.array([0, 5]))
        lo, hi = boxes.union_bounds()
        layout = MulticastLayout(boxes, 4, lo, hi)
        assert layout.boxes_t.is_degenerate()[0]
        assert layout.boxes_t.is_degenerate()[5]
        assert not layout.boxes_t.is_degenerate()[1]

    def test_replicate_segments_query_major(self, rng):
        boxes, layout = self._layout(rng, k=3)
        segs = random_boxes(rng, 5, domain=10.0)
        p1, p2 = anti_diagonal(segs)
        r1, r2 = layout.replicate_segments(p1, p2)
        assert len(r1) == 15
        logical, copy = layout.ray_copy_ids(5)
        assert logical.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]
        assert copy.tolist() == [0, 1, 2] * 5
        # Copy j is copy 0 shifted by j along the axis.
        assert np.allclose(r1[1, 0] - r1[0, 0], 1.0)
        assert np.allclose(r1[1, 1], r1[0, 1])

    def test_invalid_k(self, rng):
        boxes = random_boxes(rng, 10)
        lo, hi = boxes.union_bounds()
        with pytest.raises(ValueError):
            MulticastLayout(boxes, 0, lo, hi)


class TestPredictK:
    def test_power_of_two(self):
        for i in range(20):
            k = predict_k(10_000, 5_000, est_total_intersections=10.0**i)
            assert k & (k - 1) == 0

    def test_monotone_in_intersections(self):
        ks = [
            predict_k(50_000, 250_000, est_total_intersections=x)
            for x in (1e3, 1e6, 1e8, 1e10)
        ]
        assert ks == sorted(ks)

    def test_paper_operating_point(self):
        """USCensus-like workload (§6.5): 250K backward rays, 50K indexed
        queries, selectivity 0.1% -> the paper's optimum is k = 16-32."""
        est = 0.001 * 250_000 * 50_000
        k = predict_k(50_000, 250_000, est, w=DEFAULT_W)
        assert k in (16, 32)

    def test_no_work_gives_k1(self):
        assert predict_k(0, 100, 0.0) == 1
        assert predict_k(100, 0, 0.0) == 1
        assert predict_k(1000, 1000, 0.0) == 1

    def test_k_capped(self):
        assert predict_k(10, 10, 1e18, k_max=64) <= 64

    @given(st.floats(0.5, 0.999), st.integers(1, 10**7))
    @settings(max_examples=50, deadline=None)
    def test_always_valid(self, w, est):
        k = predict_k(1000, 1000, est, w=w)
        assert 1 <= k <= 512 and k & (k - 1) == 0


class TestSelectivityEstimate:
    def test_exhaustive_sample_exact(self, rng):
        r = random_boxes(rng, 100)
        s = random_boxes(rng, 80)
        from repro.geometry.predicates import join_intersects_box

        s_hat, trial = estimate_selectivity(r, s, rng, sample=1000)
        exact = len(join_intersects_box(r, s)[0]) / (100 * 80)
        assert s_hat == pytest.approx(exact)
        assert trial == 100 * 80

    def test_empty_sets(self, rng):
        s_hat, trial = estimate_selectivity(
            Boxes.empty(2), Boxes.empty(2), rng
        )
        assert s_hat == 0.0 and trial == 0.0

    def test_sampled_estimate_in_band(self, rng):
        r = random_boxes(rng, 5000, max_extent=8.0)
        s = random_boxes(rng, 2000, max_extent=8.0)
        from repro.geometry.predicates import join_intersects_box

        exact = len(join_intersects_box(r, s)[0]) / (5000 * 2000)
        s_hat, _ = estimate_selectivity(r, s, rng, sample=512)
        assert 0.4 * exact < s_hat < 2.5 * exact

    def test_sampled_count_full_rate_is_exact(self, rng):
        """A sample exactly as large as the bigger set tests every pair."""
        from repro.geometry.predicates import join_intersects_box

        r = random_boxes(rng, 80)
        s = random_boxes(rng, 50)
        exact = len(join_intersects_box(r, s)[0])
        s_hat, trial = estimate_selectivity(r, s, rng, sample=80)
        assert s_hat * 80 * 50 == pytest.approx(exact)
        assert trial == 80 * 50

    def test_sampled_count_reasonable_estimate(self, rng):
        """Extrapolated to the full cross product, a 300-box sample of
        each side lands within 3x of the exact pair count."""
        from repro.geometry.predicates import join_intersects_box

        r = random_boxes(rng, 2000, max_extent=8.0)
        s = random_boxes(rng, 1000, max_extent=8.0)
        exact = len(join_intersects_box(r, s)[0])
        s_hat, _ = estimate_selectivity(r, s, rng, sample=300)
        assert 0.3 * exact < s_hat * 2000 * 1000 < 3.0 * exact
