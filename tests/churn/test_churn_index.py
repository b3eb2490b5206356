"""Unit tests for the churn index: public-id plumbing, tombstone vs
delta-refit routing, the three compaction triggers, and state export."""

import numpy as np
import pytest

from repro.churn import ChurnConfig, ChurnIndex
from repro.core.index import Predicate, RTSIndex
from repro.perfmodel.compaction import compaction_build_cost, priced_drift_decision
from tests.conftest import random_boxes, random_points


def make_index(rng, n=200, **kw):
    kw.setdefault("dtype", np.float64)
    return ChurnIndex(random_boxes(rng, n), seed=5, **kw)


class TestConfig:
    def test_defaults_valid(self):
        ChurnConfig()

    @pytest.mark.parametrize(
        "bad",
        [
            {"delta_ratio_max": 0.0},
            {"refit_wear_max": 0},
            {"drift_threshold": 0.9},
            {"horizon": -1},
            {"min_observations": 0},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"poll_interval": 0.0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ChurnConfig(**bad)


class TestPublicIds:
    def test_insert_returns_dense_public_ids(self, rng):
        ix = make_index(rng, 50)
        a = ix.insert(random_boxes(rng, 10))
        b = ix.insert(random_boxes(rng, 5))
        assert a.tolist() == list(range(50, 60))
        assert b.tolist() == list(range(60, 65))

    def test_ids_survive_compaction(self, rng):
        """The whole point: results keep speaking the caller's ids even
        though compaction rewrites every internal slot."""
        data = random_boxes(rng, 300)
        ix = ChurnIndex(data, dtype=np.float64, seed=5)
        ix.delete(np.arange(0, 150))  # drop the front half
        pts = random_points(rng, 100)
        before = ix.query_points(pts)
        ix.compact()
        after = ix.query_points(pts)
        assert np.array_equal(before.rect_ids, after.rect_ids)
        assert np.array_equal(before.query_ids, after.query_ids)
        assert before.rect_ids.min(initial=300) >= 150  # front half gone

    def test_public_id_out_of_range(self, rng):
        ix = make_index(rng, 10)
        with pytest.raises(IndexError):
            ix.delete([10])
        with pytest.raises(IndexError):
            ix.update([-1], random_boxes(rng, 1))

    def test_empty_mutations_are_noops(self, rng):
        ix = make_index(rng, 10)
        epoch, ops = ix.epoch, len(ix.op_log)
        ids = ix.insert([])
        assert len(ids) == 0 and ids.dtype == np.int64
        ix.delete([])
        ix.update([], random_boxes(rng, 0))
        assert ix.epoch == epoch and len(ix.op_log) == ops

    def test_delete_skips_dead_ids(self, rng):
        ix = make_index(rng, 20)
        ix.delete([3, 4])
        epoch = ix.epoch
        ix.delete([3, 4])  # all already dead: true no-op
        assert ix.epoch == epoch
        assert ix.n_rects == 18


class TestWritePathRouting:
    def test_main_delete_is_tombstone_not_refit(self, rng):
        """Main-resident deletes must never touch the main GAS — that
        refit-freedom is the defining churn property."""
        ix = make_index(rng, 100)
        main_gas = ix._gases[0]
        refits_before = main_gas.refit_count
        ix.delete(np.arange(30))
        assert ix._gases[0] is main_gas
        assert main_gas.refit_count == refits_before
        assert ix._n_tombstones == 30
        assert ix.n_rects == 70
        # ...but the rectangles are gone from answers immediately.
        res = ix.query_points(random_points(rng, 200))
        assert res.rect_ids.min(initial=100) >= 30

    def test_delta_delete_refits_natively(self, rng):
        ix = make_index(rng, 50)
        ids = ix.insert(random_boxes(rng, 20))
        wear = ix._delta_refits
        ix.delete(ids[:5])
        assert ix._delta_refits == wear + 1
        assert ix._n_tombstones == 0

    def test_main_update_moves_to_delta(self, rng):
        ix = make_index(rng, 50)
        target = random_boxes(rng, 1)
        ix.update([7], target)
        assert ix._n_tombstones == 1
        assert ix.n_delta_batches == 1
        # Queries at the new location report the old public id.
        center = (target.mins[0] + target.maxs[0]) / 2
        res = ix.query_points(center[None, :])
        assert 7 in res.rect_ids.tolist()

    def test_update_resurrects_dead_public_id(self, rng):
        ix = make_index(rng, 30)
        ix.delete([4])
        assert ix.n_rects == 29
        ix.update([4], random_boxes(rng, 1))
        assert ix.n_rects == 30

    def test_composite_ops_log_one_record(self, rng):
        ix = make_index(rng, 40)
        ids = ix.insert(random_boxes(rng, 10))
        n_ops = len(ix.op_log)
        mixed = np.array([0, 1, int(ids[0])])  # main + main + delta
        ix.update(mixed, random_boxes(rng, 3))
        assert len(ix.op_log) == n_ops + 1
        assert ix.last_op.op == "update" and ix.last_op.count == 3
        n_ops = len(ix.op_log)
        ix.delete(np.array([2, int(ids[1])]))
        assert len(ix.op_log) == n_ops + 1
        assert ix.last_op.op == "delete" and ix.last_op.count == 2


class TestCompaction:
    def test_compact_resets_structure(self, rng):
        ix = make_index(rng, 100)
        ix.insert(random_boxes(rng, 30))
        ix.delete(np.arange(20))
        summary = ix.compact(reason="manual")
        assert summary["live"] == 110
        assert ix.n_batches == 1 and ix._main_batches == 1
        assert ix._n_tombstones == 0 and ix._delta_refits == 0
        assert ix.is_clean
        assert len(ix) == 110  # dead slots dropped entirely
        assert ix.last_op.op == "compact"
        assert ix.last_op.sim_time == pytest.approx(compaction_build_cost(110))

    def test_rebuild_maps_to_compact(self, rng):
        ix = make_index(rng, 60)
        ix.delete(np.arange(10))
        ix.rebuild()
        assert ix.last_op.op == "compact"
        assert len(ix) == 50

    def test_metrics_and_gauges(self, rng):
        ix = make_index(rng, 60)
        ix.delete(np.arange(30))
        assert ix.metrics.gauges["churn.tombstones"] == 30
        assert ix.metrics.gauges["churn.delta_fraction"] == pytest.approx(1.0)
        ix.compact(reason="manual")
        assert ix.metrics.counters["churn.compactions"] == 1
        assert ix.metrics.counters["churn.compactions.manual"] == 1
        assert ix.metrics.gauges["churn.delta_fraction"] == 0.0


class TestTriggers:
    def test_delta_ratio_trigger(self, rng):
        ix = make_index(rng, 100, churn=ChurnConfig(delta_ratio_max=0.25))
        assert ix.compaction_due() is None
        ix.insert(random_boxes(rng, 40))  # 40 delta / 140 live > 0.25
        due = ix.compaction_due()
        assert due is not None and due["reason"] == "delta-ratio"
        summary = ix.maybe_compact()
        assert summary is not None and summary["reason"] == "delta-ratio"
        assert ix.compaction_due() is None

    def test_refit_wear_trigger(self, rng):
        ix = make_index(
            rng, 100, churn=ChurnConfig(refit_wear_max=2, delta_ratio_max=100.0)
        )
        ids = ix.insert(random_boxes(rng, 10))
        for i in range(3):
            ix.update(ids[i : i + 1], random_boxes(rng, 1))
        due = ix.compaction_due()
        assert due is not None and due["reason"] == "refit-wear"

    def test_drift_trigger_is_priced(self, rng):
        """The drift trigger only fires when the integrated excess beats
        the rebuild cost — seed the shared EWMA state directly and check
        both sides of the price."""
        cfg = ChurnConfig(
            delta_ratio_max=100.0,
            refit_wear_max=10**6,
            drift_threshold=1.1,
            min_observations=1,
            horizon=1000,
        )
        # Below threshold: no trigger regardless of price.
        ix = make_index(rng, 100, churn=cfg)
        ix.delete([0])  # not clean, so drift can exist
        ix._state.observe("contains-point", 100.0, 1.0, clean=True)
        ix._state.observe("contains-point", 105.0, 1.0, clean=False)
        assert ix.compaction_due() is None
        # Huge drift but negligible per-query cost: priced out.
        cheap = make_index(rng, 100, churn=cfg)
        cheap.delete([0])
        cheap._state.observe("contains-point", 100.0, 1e-12, clean=True)
        cheap._state.observe("contains-point", 500.0, 1e-12, clean=False)
        assert cheap.compaction_due() is None
        # Same drift, real per-query cost: fires as counter-drift.
        hot = make_index(rng, 100, churn=cfg)
        hot.delete([0])
        hot._state.observe("contains-point", 100.0, 1.0, clean=True)
        hot._state.observe("contains-point", 500.0, 1.0, clean=False)
        due = hot.compaction_due()
        assert due is not None and due["reason"] == "counter-drift"
        assert due["excess_s"] > due["rebuild_s"]

    def test_priced_decision_math(self):
        d = priced_drift_decision(1000, drift=2.0, per_query_s=1.0, horizon=100)
        assert d.excess_s == pytest.approx(50.0)
        assert d.rebuild_s == pytest.approx(compaction_build_cost(1000))
        assert d.fire == (d.excess_s > d.rebuild_s)
        flat = priced_drift_decision(1000, drift=0.5, per_query_s=1.0, horizon=100)
        assert flat.drift == 1.0 and flat.excess_s == 0.0 and not flat.fire

    def test_drift_observed_from_queries(self, rng):
        """Real query traffic over a tombstone-heavy index must push the
        drift factor above 1 without any hand-seeded state."""
        ix = make_index(rng, 400)
        pts = random_points(rng, 200)
        ix.query_points(pts)  # clean baseline observation
        ix.delete(np.arange(0, 300))  # main tombstones: stale geometry
        for _ in range(6):
            ix.query_points(pts)
        assert ix.rt_traversal_factor() > 1.15

    def test_planner_prices_drift(self, rng):
        """The planner's RT estimate must carry the drift tax on its
        data-side traversal work only — not on the launch floor — and
        stay untouched at drift 1.0 so plain-index plans are unchanged."""
        from repro.plan.cost import analytic_estimates
        from repro.plan.planner import QueryPlanner

        ix = make_index(rng, 300)
        planner = QueryPlanner()
        base = planner.plan(ix, Predicate.CONTAINS_POINT, 64)
        assert "traversal_factor" not in base.estimates["rt"].detail
        ix._state.observe("contains-point", 100.0, 1.0, clean=True)
        ix.delete([0])
        ix._state.observe("contains-point", 250.0, 1.0, clean=False)
        taxed = planner.plan(ix, Predicate.CONTAINS_POINT, 64)
        factor = taxed.estimates["rt"].detail["traversal_factor"]
        assert factor == pytest.approx(ix.rt_traversal_factor())
        # The untaxed offer at the taxed plan's live count.
        rt = analytic_estimates(Predicate.CONTAINS_POINT, 64, ix.n_rects, w=ix.w)["rt"]
        assert 0.0 < rt.detail["traversal_s"] < rt.query_s
        assert taxed.estimates["rt"].query_s == pytest.approx(
            rt.query_s + (factor - 1.0) * rt.detail["traversal_s"]
        )


class TestFromIndexAndExport:
    def test_from_index_wraps_without_touching_seed(self, rng):
        seed = RTSIndex(random_boxes(rng, 80), dtype=np.float64)
        seed_epoch = seed.epoch
        ix = ChurnIndex.from_index(seed)
        assert isinstance(ix, ChurnIndex)
        ix.delete(np.arange(40))
        assert seed.epoch == seed_epoch and seed.n_rects == 80
        assert ix.n_rects == 40

    def test_from_index_idempotent(self, rng):
        ix = make_index(rng, 10)
        cfg = ChurnConfig(delta_ratio_max=0.1)
        again = ChurnIndex.from_index(ix, churn=cfg)
        assert again is ix and again.churn is cfg

    def test_fork_shares_drift_state(self, rng):
        ix = make_index(rng, 50)
        twin = ix.fork()
        assert isinstance(twin, ChurnIndex)
        assert twin._state is ix._state
        assert twin._canon_id is not ix._canon_id
        twin.delete(np.arange(10))
        assert ix.n_rects == 50 and twin.n_rects == 40
