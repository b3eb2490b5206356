"""Unit coverage of the planner's pieces: analytic costs, hysteresis,
build amortization, the per-call planner setting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.perfmodel import calibration as C
from repro.plan.cost import analytic_estimates

from tests.conftest import random_boxes, random_points


class TestAnalyticEstimates:
    def test_all_candidates_priced_positive(self):
        for pred in Predicate:
            offers = analytic_estimates(pred, 100, 10_000, w=0.99)
            assert set(offers) == {"rt", "lbvh"}
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


class TestPlannerPolicy:
    def test_validation(self):
        """The policy constants the planner reads stay in their valid
        ranges (they were once per-planner arguments checked here)."""
        from repro.plan import planner as planner_mod

        assert 0.0 < planner_mod.HYSTERESIS <= 1.0
        assert isinstance(planner_mod.BUILD_AMORTIZATION, int)
        assert planner_mod.BUILD_AMORTIZATION >= 1

    def test_build_amortization_divides_build_cost(self, rng, monkeypatch):
        from repro.plan import planner as planner_mod

        data = random_boxes(rng, 600)
        payload = random_points(rng, 8)

        def lbvh_build_charge():
            with RTSIndex(data, dtype=np.float64, seed=1) as ix:
                r = ix.query(Predicate.CONTAINS_POINT, payload, planner="auto")
            return r.meta["plan"]["costs"]["lbvh"]["build_s"]

        amortization = planner_mod.BUILD_AMORTIZATION
        amortized = lbvh_build_charge()
        monkeypatch.setattr(planner_mod, "BUILD_AMORTIZATION", 1)
        full = lbvh_build_charge()
        assert full > 0.0
        assert amortized * amortization == pytest.approx(full)

    def test_hysteresis_biases_to_rt(self, rng, monkeypatch):
        """With hysteresis ~1e-9 the LBVH cannot win; the same workload
        under the default hysteresis routes off the RT pipeline."""
        from repro.plan import planner as planner_mod

        data = random_boxes(rng, 600)
        payload = random_boxes(rng, 8, max_extent=2.0)
        with RTSIndex(data, dtype=np.float64, seed=1) as ix:
            r = ix.query(Predicate.RANGE_INTERSECTS, payload, planner="auto")
            assert r.meta["plan"]["backend"] == "lbvh"
        monkeypatch.setattr(planner_mod, "HYSTERESIS", 1e-9)
        with RTSIndex(data, dtype=np.float64, seed=1) as ix:
            r = ix.query(Predicate.RANGE_INTERSECTS, payload, planner="auto")
            assert r.meta["plan"]["backend"] == "rt"

    def test_build_charged_until_built(self, rng):
        """The first plan charges the amortized LBVH build; after the
        GAS's LBVH is built, re-planning the same workload charges
        zero."""
        data = random_boxes(rng, 600)
        payload = random_boxes(rng, 8, max_extent=2.0)
        with RTSIndex(data, dtype=np.float64, seed=1) as ix:
            first = ix.query(Predicate.RANGE_INTERSECTS, payload, planner="auto")
            assert first.meta["plan"]["backend"] == "lbvh"
            assert first.meta["plan"]["costs"]["lbvh"]["build_s"] > 0.0
            assert first.meta["backend_built_now"] is True
            second = ix.query(Predicate.RANGE_INTERSECTS, payload, planner="auto")
            assert second.meta["plan"]["costs"]["lbvh"]["build_s"] == 0.0
            assert second.meta["backend_built_now"] is False


class TestPlannerSetting:
    @pytest.mark.parametrize("planner", ["bogus", "Auto", "", 0, True])
    @pytest.mark.parametrize("call", ["query", "query_points", "query_contains",
                                      "query_intersects"])
    @pytest.mark.parametrize("n_rects", [50, 0])
    def test_invalid_planner_rejected_at_the_call(self, rng, n_rects, call, planner):
        """Only "auto", "off" and None are planner settings; anything
        else is a ValueError naming them, on every query entry point and
        also on an empty index."""
        data = random_boxes(rng, n_rects) if n_rects else None
        with RTSIndex(data, dtype=np.float64) as ix:
            if call == "query_points":
                args = (random_points(rng, 4),)
            elif call == "query":
                args = (Predicate.RANGE_CONTAINS, random_boxes(rng, 4))
            else:
                args = (random_boxes(rng, 4),)
            with pytest.raises(ValueError, match=r'None, "off" or "auto"'):
                getattr(ix, call)(*args, planner=planner)

    def test_planning_is_not_an_index_setting(self, rng):
        with pytest.raises(TypeError):
            RTSIndex(random_boxes(rng, 10), planner="auto")
