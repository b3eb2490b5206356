"""Churn through the serving layer: the writer path, atomic epoch
publication of compactions and the background compactor."""

import time

import numpy as np
import pytest

from repro.churn import BackgroundCompactor, ChurnConfig, ChurnIndex
from repro.core.index import Predicate, RTSIndex
from repro.serve import ServiceConfig, SpatialQueryService
from tests.conftest import assert_pairs_equal, random_boxes, random_points


def make_service(rng, n=300, *, churn=None, **kw):
    churn = churn or ChurnConfig()
    seed = RTSIndex(random_boxes(rng, n), dtype=np.float64, seed=4)
    return SpatialQueryService(seed, ServiceConfig(churn=churn, cache_size=0, **kw))


class TestConfigAndWrap:
    def test_config_rejects_non_churnconfig(self):
        with pytest.raises(ValueError):
            ServiceConfig(churn="yes please")

    def test_service_wraps_seed(self, rng):
        with make_service(rng) as svc:
            assert isinstance(svc.snapshot(), ChurnIndex)
            assert svc.compactor is not None and svc.compactor.running

    def test_plain_service_has_no_compactor(self, rng):
        seed = RTSIndex(random_boxes(rng, 50), dtype=np.float64)
        with SpatialQueryService(seed) as svc:
            assert svc.compactor is None
            with pytest.raises(TypeError):
                svc.compact()

    def test_seed_index_untouched_by_service_writes(self, rng):
        seed = RTSIndex(random_boxes(rng, 100), dtype=np.float64)
        with SpatialQueryService(seed, ServiceConfig(churn=ChurnConfig())) as svc:
            svc.delete(np.arange(50))
            assert seed.n_rects == 100


class TestWriterPath:
    def test_mutations_publish_epochs_with_public_ids(self, rng):
        with make_service(rng, 200) as svc:
            e0 = svc.epoch
            ids = svc.insert(random_boxes(rng, 40))
            assert ids.tolist() == list(range(200, 240))
            assert svc.epoch > e0
            svc.delete(ids[:10])
            svc.update(ids[10:20], random_boxes(rng, 10))
            assert svc.snapshot().n_rects == 230

    def test_manual_compact_publishes_epoch(self, rng):
        with make_service(rng, 200) as svc:
            svc.delete(np.arange(80))
            e = svc.epoch
            summary = svc.compact()
            assert summary["reason"] == "manual"
            assert svc.epoch > e
            snap = svc.snapshot()
            assert snap.is_clean and len(snap) == 120

    def test_served_answers_match_direct_snapshot(self, rng):
        with make_service(rng, 250) as svc:
            svc.insert(random_boxes(rng, 50))
            svc.delete(np.arange(0, 100, 3))
            pts = random_points(rng, 120)
            served = svc.query_points(pts)
            expected = svc.snapshot().query(Predicate.CONTAINS_POINT, pts)
            assert_pairs_equal(served.pairs(), expected.pairs(), "served churn")


class TestBackgroundCompactor:
    def test_ratio_trigger_fires_in_background(self, rng):
        churn = ChurnConfig(delta_ratio_max=0.2, poll_interval=0.001)
        with make_service(rng, 200, churn=churn) as svc:
            for _ in range(3):
                svc.insert(random_boxes(rng, 30))
            deadline = time.monotonic() + 5.0
            while svc.compactor.n_compactions == 0 and time.monotonic() < deadline:
                time.sleep(0.002)
            assert svc.compactor.n_compactions >= 1
            assert svc.compactor.last_summary["trigger"]["reason"] == "delta-ratio"
            # Reads proceed normally on the compacted epoch.
            res = svc.query_intersects(random_boxes(rng, 20))
            assert res.meta["epoch"] >= svc.compactor.last_summary["epoch"]

    def test_drift_trigger_through_service(self, rng):
        """The acceptance-criteria trigger: compaction fired by observed
        counter drift (size/wear caps out of reach), with reads flowing
        through the serve layer before, during and after."""
        churn = ChurnConfig(
            delta_ratio_max=1e9,
            refit_wear_max=10**9,
            drift_threshold=1.1,
            min_observations=3,
            horizon=10**9,  # any real drift pays for the rebuild
            poll_interval=0.001,
        )
        with make_service(rng, 400, churn=churn) as svc:
            pts = random_points(rng, 150)
            svc.query_points(pts)  # clean baseline observation
            svc.delete(np.arange(0, 300))  # tombstone-heavy: drift source
            deadline = time.monotonic() + 10.0
            while svc.compactor.n_compactions == 0 and time.monotonic() < deadline:
                svc.query_points(pts)  # reads ARE the drift sensor
            assert svc.compactor.n_compactions >= 1
            trigger = svc.compactor.last_summary["trigger"]
            assert trigger["reason"] == "counter-drift"
            assert trigger["drift"] >= churn.drift_threshold
            after = svc.query_points(pts)
            assert after.meta["epoch"] >= svc.compactor.last_summary["epoch"]

    def test_poll_synchronous_and_idempotent(self, rng):
        churn = ChurnConfig(delta_ratio_max=0.2, poll_interval=60.0)
        with make_service(rng, 100, churn=churn) as svc:
            assert svc.compactor.poll() is None
            svc.insert(random_boxes(rng, 50))
            summary = svc.compactor.poll()
            assert summary is not None and summary["reason"] == "delta-ratio"
            assert svc.compactor.poll() is None  # debt cleared
            assert svc.compactor.n_compactions == 1

    def test_stop_is_idempotent_and_close_stops(self, rng):
        svc = make_service(rng, 50)
        compactor = svc.compactor
        svc.close()
        assert not compactor.running
        compactor.stop()  # second stop: no-op
        with pytest.raises(Exception):
            svc.insert(random_boxes(rng, 1))

    def test_compactor_standalone_with_stub_service(self):
        """The compactor only needs snapshot()/compact() — the duck-typed
        contract that keeps repro.churn importable without repro.serve."""

        class Stub:
            def __init__(self):
                self.due = {"reason": "delta-ratio"}
                self.compactions = 0

            def snapshot(self):
                stub = self

                class Snap:
                    def compaction_due(self):
                        return stub.due

                return Snap()

            def compact(self, reason):
                self.compactions += 1
                self.due = None
                return {"reason": reason, "epoch": 1, "live": 0, "sim_time": 0.0}

        stub = Stub()
        c = BackgroundCompactor(stub, poll_interval=60.0)
        assert c.poll()["reason"] == "delta-ratio"
        assert stub.compactions == 1
        assert c.poll() is None


class TestServeAcrossCompaction:
    def test_pairs_stable_across_compaction(self, rng):
        """Served answers (public-id remap included) stay the same across
        a compaction publication."""
        churn = ChurnConfig(delta_ratio_max=1e9, poll_interval=60.0)
        seed = RTSIndex(random_boxes(rng, 250), dtype=np.float64, seed=4)
        config = ServiceConfig(churn=churn, cache_size=0)
        with SpatialQueryService(seed, config) as svc:
            svc.insert(random_boxes(rng, 50))
            svc.delete(np.arange(0, 100, 2))
            pts = random_points(rng, 100)
            before = svc.query_points(pts)
            svc.compact()
            after = svc.query_points(pts)
            # Public ids are compaction-invariant, so the two epochs
            # answer identically.
            assert_pairs_equal(before.pairs(), after.pairs(), "across compaction")
            expected = svc.snapshot().query(Predicate.CONTAINS_POINT, pts)
            assert_pairs_equal(after.pairs(), expected.pairs(), "vs owner")

    @pytest.mark.parametrize(
        "predicate", [Predicate.CONTAINS_POINT, Predicate.RANGE_CONTAINS,
                      Predicate.RANGE_INTERSECTS]
    )
    def test_served_matches_plain_mirror(self, rng, predicate):
        """The churn write path serves the answers of a plain index that
        replayed the same writes, before and after a compaction."""
        churn = ChurnConfig(delta_ratio_max=1e9, poll_interval=60.0)
        data = random_boxes(rng, 250)
        mirror = RTSIndex(data, dtype=np.float64, seed=4)
        seed = RTSIndex(data, dtype=np.float64, seed=4)
        if predicate is Predicate.CONTAINS_POINT:
            payload = random_points(rng, 120)
        else:
            payload = random_boxes(rng, 40, max_extent=8.0)
        k = 2 if predicate is Predicate.RANGE_INTERSECTS else None
        new, moved = random_boxes(rng, 50), random_boxes(rng, 20)
        with SpatialQueryService(seed, ServiceConfig(churn=churn, cache_size=0)) as svc:
            for target in (svc, mirror):
                ids = target.insert(new)
                target.delete(np.arange(0, 100, 2))
                target.update(ids[:20], moved)
            want = mirror.query(predicate, payload, k=k).pairs()
            before = svc.query(predicate, payload, k=k)
            assert_pairs_equal(before.pairs(), want, "before compaction")
            svc.compact()
            assert svc.snapshot().is_clean
            after = svc.query(predicate, payload, k=k)
            assert_pairs_equal(after.pairs(), want, "after compaction")
