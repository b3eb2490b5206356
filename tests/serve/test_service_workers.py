"""Service in process mode (``ServiceConfig.workers > 0``): bit-identical
responses vs in-process serving, epoch replay, and no leaked segments."""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.serve import ServiceConfig, SpatialQueryService

from tests.conftest import random_boxes, random_points


def make_index(seed=9, n=1200):
    rng = np.random.default_rng(seed)
    return RTSIndex(random_boxes(rng, n), dtype=np.float64, seed=seed)


def run_sequence(workers, *, cache_size=64, retain=False, steps=5):
    """One deterministic client session; returns per-request summaries
    and the service's leak-check segment names."""
    rng = np.random.default_rng(31)
    svc = SpatialQueryService(
        make_index(),
        ServiceConfig(
            max_wait=0.0, planner=None, workers=workers, cache_size=cache_size
        ),
        retain_snapshots=retain,
    )
    rows = []
    snapshots = {}
    try:
        for step in range(steps):
            pts = random_points(rng, 250)
            q = random_boxes(rng, 16)
            futs = [
                svc.submit(Predicate.CONTAINS_POINT, pts),
                svc.submit(Predicate.RANGE_INTERSECTS, q, k=2),
                svc.submit(Predicate.CONTAINS_POINT, pts),  # cache-hit path
                svc.submit(Predicate.RANGE_CONTAINS, q),
            ]
            for f in futs:
                r = f.result(timeout=120)
                rows.append(
                    {
                        "pairs": (r.rect_ids.copy(), r.query_ids.copy()),
                        "phases": dict(r.phases),
                        "epoch": r.meta.get("epoch"),
                        "k": r.meta.get("k"),
                        "stats": r.meta.get("stats")
                        or r.meta.get("forward_stats"),
                        "cache_hit": r.meta.get("cache_hit"),
                        "payload": (r.meta.get("epoch"), pts if step == 0 else None),
                    }
                )
            if step % 2 == 0:
                extra = random_boxes(rng, 25)
                svc.insert(extra)
            if retain:
                snapshots[svc.epoch] = True
        names = list(svc.pool.created_segment_names) if svc.pool else []
    finally:
        svc.close()
    return rows, names, svc


def leaked(names):
    out = []
    for name in names:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        shm.close()
        out.append(name)
    return out


class TestProcessModeEquivalence:
    def test_bit_identical_to_in_process(self):
        a, _, _ = run_sequence(0)
        b, names, _ = run_sequence(2)
        assert len(a) == len(b)
        for i, (ra, rb) in enumerate(zip(a, b)):
            assert np.array_equal(ra["pairs"][0], rb["pairs"][0]), i
            assert np.array_equal(ra["pairs"][1], rb["pairs"][1]), i
            assert ra["phases"] == rb["phases"], i
            assert ra["epoch"] == rb["epoch"], i
            assert ra["k"] == rb["k"], i
            assert ra["stats"] == rb["stats"], i
        assert leaked(names) == []

    def test_cache_disabled_still_identical(self):
        a, _, _ = run_sequence(0, cache_size=0, steps=3)
        b, names, _ = run_sequence(2, cache_size=0, steps=3)
        for i, (ra, rb) in enumerate(zip(a, b)):
            assert np.array_equal(ra["pairs"][0], rb["pairs"][0]), i
            assert ra["phases"] == rb["phases"], i
        assert leaked(names) == []

    def test_epoch_replay_against_retained_snapshot(self):
        """Each served response replays bit-identically on a direct query
        of the retained snapshot it names."""
        rng = np.random.default_rng(55)
        svc = SpatialQueryService(
            make_index(),
            ServiceConfig(max_wait=0.0, planner=None, workers=2, cache_size=0),
            retain_snapshots=True,
        )
        served = []
        try:
            for step in range(3):
                pts = random_points(rng, 200)
                r = svc.query_points(pts)
                served.append((pts, r))
                svc.insert(random_boxes(rng, 15))
            for pts, r in served:
                snap = svc.snapshot_at(r.meta["epoch"])
                direct = snap.query(
                    Predicate.CONTAINS_POINT, pts, planner="off"
                )
                assert np.array_equal(r.rect_ids, direct.rect_ids)
                assert np.array_equal(r.query_ids, direct.query_ids)
                assert r.phases == direct.phases
        finally:
            svc.close()

    def test_no_segments_leaked_after_close(self):
        _, names, _ = run_sequence(2, steps=4)
        assert names, "expected published segments"
        assert leaked(names) == []

    def test_wave_metrics_accounted(self):
        _, _, svc = run_sequence(2, steps=2)
        counters = svc.metrics.as_dict()["counters"]
        assert counters.get("serve.waves", 0) >= 1
        assert counters.get("serve.sim_time", 0.0) > 0.0


class TestOneSchedulerLoop:
    """In-process serving is the one-batch wave of the same scheduler loop
    that dispatches process-pool waves."""

    @staticmethod
    def stage(svc, n):
        """``n`` staged requests alternating predicates, so each is its
        own batch."""
        rng = np.random.default_rng(8)
        futs = []
        for i in range(n):
            if i % 2 == 0:
                futs.append(svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 20)))
            else:
                futs.append(svc.submit(Predicate.RANGE_CONTAINS, random_boxes(rng, 8)))
        return futs

    @pytest.mark.parametrize("workers,waves", [(0, 6), (2, 2)])
    def test_wave_holds_two_batches_per_worker(self, workers, waves):
        svc = SpatialQueryService(
            make_index(n=300),
            ServiceConfig(planner=None, workers=workers, cache_size=0),
            autostart=False,
        )
        try:
            futs = self.stage(svc, 6)
            svc.start()
            for f in futs:
                f.result(timeout=120)
            counters = svc.metrics.as_dict()["counters"]
        finally:
            svc.close()
        assert counters["serve.waves"] == waves
        assert counters["serve.batches"] == 6

    def test_failed_dispatch_counts_every_batch(self):
        svc = SpatialQueryService(
            make_index(n=300),
            ServiceConfig(planner=None, workers=2, cache_size=0),
            autostart=False,
        )

        def broken(snapshot, specs):
            raise RuntimeError("dispatch failed")

        svc.pool.dispatch = broken
        try:
            futs = self.stage(svc, 3)
            svc.start()
            for f in futs:
                with pytest.raises(RuntimeError, match="dispatch failed"):
                    f.result(timeout=120)
            counters = svc.metrics.as_dict()["counters"]
        finally:
            svc.close()
        assert counters["serve.batch_errors"] == 3
        assert "serve.waves" not in counters


class TestRetainLast:
    def test_int_retain_caps_history(self):
        svc = SpatialQueryService(
            make_index(n=200),
            ServiceConfig(max_wait=0.0, planner=None),
            retain_snapshots=2,
        )
        try:
            rng = np.random.default_rng(3)
            first_epoch = svc.epoch
            for _ in range(4):
                svc.insert(random_boxes(rng, 10))
            # Newest two epochs remain, the rest were evicted + closed.
            svc.snapshot_at(svc.epoch)
            svc.snapshot_at(svc.epoch - 1)
            with pytest.raises(KeyError, match="evicted by retain_last=2"):
                svc.snapshot_at(first_epoch)
        finally:
            svc.close()
