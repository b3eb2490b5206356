"""Unit coverage of the planner's pieces: signatures, analytic costs,
hysteresis, forcing rules and the EWMA feedback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.perfmodel import calibration as C
from repro.perfmodel import querycost
from repro.plan import (
    BASELINE_BACKENDS,
    QueryPlanner,
    WorkloadSignature,
    log2_bucket,
)
from repro.plan.cost import analytic_estimates

from tests.conftest import random_boxes, random_points


class TestSignature:
    def test_log2_bucket(self):
        assert log2_bucket(0) == 0
        assert log2_bucket(1) == 0
        assert log2_bucket(2) == 1
        assert log2_bucket(3) == 1
        assert log2_bucket(1024) == 10
        assert log2_bucket(1500) == 10

    def test_nearby_sizes_share_a_signature(self):
        a = WorkloadSignature.of(Predicate.CONTAINS_POINT, 2, 900, 10_000)
        b = WorkloadSignature.of(Predicate.CONTAINS_POINT, 2, 1000, 12_000)
        assert a == b
        c = WorkloadSignature.of(Predicate.RANGE_CONTAINS, 2, 900, 10_000)
        assert a != c
        assert "contains-point" in a.as_tag()


class TestAnalyticEstimates:
    def test_all_candidates_priced_positive(self):
        for pred in Predicate:
            offers = analytic_estimates(pred, 100, 10_000, w=0.99)
            assert set(offers) == {"rt", *BASELINE_BACKENDS}
            for est in offers.values():
                assert est.total_s > 0.0

    def test_rt_pays_launch_floor(self):
        offers = analytic_estimates(Predicate.CONTAINS_POINT, 1, 100, w=0.99)
        assert offers["rt"].query_s >= C.GPU_LAUNCH_OVERHEAD

    def test_intersects_detail_has_predicted_k(self):
        offers = analytic_estimates(Predicate.RANGE_INTERSECTS, 500, 50_000, w=0.99)
        detail = offers["rt"].detail
        assert detail["k"] >= 1
        assert detail["forward_ops"] > 0 and detail["backward_ops"] > 0

    def test_costs_grow_with_workload(self):
        small = analytic_estimates(Predicate.CONTAINS_POINT, 10, 1000, w=0.99)
        big = analytic_estimates(Predicate.CONTAINS_POINT, 10_000, 1000, w=0.99)
        for b in small:
            assert big[b].query_s > small[b].query_s

    def test_rtree_height(self):
        assert querycost.rtree_height(10) == 1
        assert querycost.rtree_height(16 * 16) == 1
        assert querycost.rtree_height(16 * 16 + 1) == 2


class TestPlannerPolicy:
    def test_validation(self):
        """The policy constants the planner reads stay in their valid
        ranges (they were once per-planner arguments checked here)."""
        from repro.plan import planner as planner_mod

        assert 0.0 < planner_mod.HYSTERESIS <= 1.0
        assert 0.0 < planner_mod.EWMA_ALPHA <= 1.0
        assert isinstance(planner_mod.BUILD_AMORTIZATION, int)
        assert planner_mod.BUILD_AMORTIZATION >= 1
        lo, hi = planner_mod.CORRECTION_BAND
        assert 0.0 < lo < 1.0 < hi

    def test_alpha_sets_ewma_step(self, rng, monkeypatch):
        """One observation moves a correction from 1.0 by ``EWMA_ALPHA``
        of the way to the observed ratio (``EWMA_ALPHA = 1`` stores the
        ratio itself)."""
        from repro.plan import planner as planner_mod

        data = random_boxes(rng, 600)
        payload = random_points(rng, 8)

        def correction():
            planner = QueryPlanner()
            with RTSIndex(data, dtype=np.float64, seed=1, planner=planner) as ix:
                ix.query(Predicate.CONTAINS_POINT, payload)
            ((_, value),) = planner.feedback_state()["corrections"].items()
            return value

        alpha = planner_mod.EWMA_ALPHA
        smoothed = correction()
        monkeypatch.setattr(planner_mod, "EWMA_ALPHA", 1.0)
        ratio = correction()
        assert ratio != pytest.approx(1.0)
        assert smoothed == pytest.approx((1.0 - alpha) + alpha * ratio)

    def test_build_amortization_divides_build_cost(self, rng, monkeypatch):
        from repro.plan import planner as planner_mod

        data = random_boxes(rng, 600)
        payload = random_points(rng, 8)

        def build_costs():
            with RTSIndex(data, dtype=np.float64, seed=1, planner=QueryPlanner()) as ix:
                costs = ix.query(Predicate.CONTAINS_POINT, payload).meta["plan"]["costs"]
            return {b: c["build_s"] for b, c in costs.items() if b != "rt"}

        amortization = planner_mod.BUILD_AMORTIZATION
        amortized = build_costs()
        monkeypatch.setattr(planner_mod, "BUILD_AMORTIZATION", 1)
        full = build_costs()
        assert set(amortized) == set(full) == set(BASELINE_BACKENDS)
        for b in full:
            assert full[b] > 0.0
            assert amortized[b] * amortization == pytest.approx(full[b])

    def test_hysteresis_biases_to_rt(self, rng, monkeypatch):
        """With hysteresis ~1e-9 no baseline can win; the same workload
        under the default hysteresis routes off the RT pipeline."""
        from repro.plan import planner as planner_mod

        data = random_boxes(rng, 600)
        payload = random_points(rng, 8)
        with RTSIndex(data, dtype=np.float64, seed=1, planner="auto") as ix:
            r = ix.query(Predicate.CONTAINS_POINT, payload)
            assert r.meta["plan"]["backend"] != "rt"
        monkeypatch.setattr(planner_mod, "HYSTERESIS", 1e-9)
        with RTSIndex(data, dtype=np.float64, seed=1, planner="auto") as ix:
            r = ix.query(Predicate.CONTAINS_POINT, payload)
            assert r.meta["plan"]["backend"] == "rt"

    def test_observe_updates_corrections(self, rng):
        data = random_boxes(rng, 600)
        payload = random_points(rng, 8)
        planner = QueryPlanner()
        assert planner.feedback_state()["corrections"] == {}
        with RTSIndex(data, dtype=np.float64, seed=1, planner=planner) as ix:
            ix.query(Predicate.CONTAINS_POINT, payload)
        state = planner.feedback_state()
        assert state["n_decisions"] == 1
        assert len(state["corrections"]) == 1
        ((key, value),) = state["corrections"].items()
        assert 0.05 <= value <= 20.0

    def test_intersects_selectivity_feedback(self, rng):
        data = random_boxes(rng, 600)
        payload = random_boxes(rng, 8, max_extent=2.0)
        planner = QueryPlanner()
        with RTSIndex(data, dtype=np.float64, seed=1, planner=planner) as ix:
            ix.query(Predicate.RANGE_INTERSECTS, payload)
        state = planner.feedback_state()
        assert len(state["selectivity"]) == 1
        (sel,) = state["selectivity"].values()
        assert 0.0 <= sel <= 1.0

    def test_build_charged_once_per_epoch(self, rng):
        """The first plan at an epoch charges the amortized baseline
        build; after the structure is built, re-planning the same
        workload charges zero."""
        data = random_boxes(rng, 600)
        payload = random_points(rng, 8)
        planner = QueryPlanner()
        with RTSIndex(data, dtype=np.float64, seed=1, planner=planner) as ix:
            first = ix.query(Predicate.CONTAINS_POINT, payload)
            backend = first.meta["plan"]["backend"]
            assert backend != "rt"
            assert first.meta["plan"]["costs"][backend]["build_s"] > 0.0
            assert first.meta["backend_built_now"] is True
            second = ix.query(Predicate.CONTAINS_POINT, payload)
            assert second.meta["plan"]["costs"][backend]["build_s"] == 0.0
            assert second.meta["backend_built_now"] is False

    def test_forks_share_planner_state(self, rng):
        data = random_boxes(rng, 600)
        payload = random_points(rng, 8)
        with RTSIndex(data, dtype=np.float64, seed=1, planner="auto") as ix:
            ix.query(Predicate.CONTAINS_POINT, payload)
            n_before = ix.planner.feedback_state()["n_decisions"]
            fork = ix.fork()
            try:
                assert fork.planner is ix.planner
                fork.query(Predicate.CONTAINS_POINT, payload)
            finally:
                fork.close()
            assert ix.planner.feedback_state()["n_decisions"] == n_before + 1
