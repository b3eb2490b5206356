"""Micro-batching: the work-conserving dispatch rule, coalescing policy,
scatter correctness, the sim win."""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np
import pytest

import repro.serve.service as service_mod
from repro.core.index import Predicate, RTSIndex
from repro.serve import ServiceConfig, SpatialQueryService
from repro.serve.batcher import split_batch, take_compatible
from repro.serve.request import QueryRequest, normalize_payload

from tests.conftest import assert_pairs_equal, random_boxes, random_points


def _req(predicate, payload, k=None):
    return QueryRequest(
        predicate=predicate,
        payload=payload,
        n_queries=len(payload),
        k=k,
        deadline=None,
    )


def make_index(rng, n=500):
    return RTSIndex(random_boxes(rng, n), dtype=np.float64, seed=4)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        # No linger knob: the scheduler never waits to fill a batch.
        with pytest.raises(TypeError):
            ServiceConfig(max_wait=0.002)

    def test_take_compatible_prefix_only(self, rng):
        def pts():
            return random_points(rng, 4)

        def qs():
            return random_boxes(rng, 4)
        pending = deque(
            [
                _req(Predicate.CONTAINS_POINT, pts()),
                _req(Predicate.CONTAINS_POINT, pts()),
                _req(Predicate.RANGE_CONTAINS, qs()),
                _req(Predicate.CONTAINS_POINT, pts()),  # NOT cherry-picked
            ]
        )
        batch = take_compatible(pending, max_batch=8)
        assert len(batch) == 2
        assert pending[0].predicate is Predicate.RANGE_CONTAINS
        assert len(pending) == 2

    def test_take_compatible_respects_max_batch(self, rng):
        pending = deque(
            [_req(Predicate.CONTAINS_POINT, random_points(rng, 4)) for _ in range(6)]
        )
        assert len(take_compatible(pending, max_batch=4)) == 4
        assert len(pending) == 2

    def test_distinct_k_never_coalesces(self, rng):
        pending = deque(
            [
                _req(Predicate.RANGE_INTERSECTS, random_boxes(rng, 4), k=1),
                _req(Predicate.RANGE_INTERSECTS, random_boxes(rng, 4), k=2),
            ]
        )
        assert len(take_compatible(pending, max_batch=8)) == 1


class TestScatter:
    @pytest.mark.parametrize(
        "predicate", [Predicate.CONTAINS_POINT, Predicate.RANGE_CONTAINS,
                      Predicate.RANGE_INTERSECTS]
    )
    def test_batched_slices_match_direct(self, rng, predicate):
        """Each scattered slice equals the direct per-request answer."""
        index = make_index(rng)
        k = 2 if predicate is Predicate.RANGE_INTERSECTS else None
        if predicate is Predicate.CONTAINS_POINT:
            payloads = [random_points(rng, n) for n in (17, 1, 40)]
        else:
            payloads = [random_boxes(rng, n) for n in (17, 1, 40)]
        payloads = [
            normalize_payload(predicate, p, index.ndim, index.dtype)
            for p in payloads
        ]
        direct = [index.query(predicate, p, k=k) for p in payloads]

        from repro.serve.batcher import execute_batch

        batch = [_req(predicate, p, k=k) for p in payloads]
        merged = execute_batch(index, batch)
        parts = split_batch(merged, batch, epoch=index.epoch)
        assert len(parts) == 3
        for part, want, req in zip(parts, direct, batch):
            assert_pairs_equal(part.pairs(), want.pairs(), predicate.value)
            assert part.meta["batch_size"] == 3
            assert part.meta["epoch"] == index.epoch
            assert part.meta["batch_sim_time"] == merged.sim_time
            # Proportional attribution sums back to the batch total.
        total = sum(p.sim_time for p in parts)
        assert total == pytest.approx(merged.sim_time)

    def test_single_request_passthrough(self, rng):
        """Pairs/phases pass through bit-for-bit, but on a *fresh* result:
        annotating the shared execution result in place (the old
        behavior) leaked serving bookkeeping into an object other code
        may hold, and ``setdefault`` would keep a stale epoch."""
        index = make_index(rng)
        payload = normalize_payload(
            Predicate.CONTAINS_POINT, random_points(rng, 25), index.ndim, index.dtype
        )
        req = _req(Predicate.CONTAINS_POINT, payload)
        from repro.serve.batcher import execute_batch

        merged = execute_batch(index, [req])
        # Simulate a result that already transited a serving layer: its
        # stale annotations must not survive into this batch's part.
        merged.meta["epoch"] = 3
        merged.meta["batch_size"] = 99
        before_meta = dict(merged.meta)
        (part,) = split_batch(merged, [req], epoch=7)
        assert part is not merged
        # Shared pair arrays (no copy), identical phases.
        assert part.rect_ids is merged.rect_ids
        assert part.query_ids is merged.query_ids
        assert part.phases == merged.phases
        # Serving fields set unconditionally on the copy...
        assert part.meta["epoch"] == 7
        assert part.meta["batch_size"] == 1
        assert part.meta["cache_hit"] is False
        # ...and the original result's meta is untouched.
        assert merged.meta == before_meta


class TestServiceBatching:
    def test_deterministic_coalescing(self, rng):
        """Stage 16 requests before starting: one launch serves them all,
        and every response equals its direct per-request answer."""
        data = random_boxes(rng, 500)
        direct_index = RTSIndex(data, dtype=np.float64, seed=4)
        payloads = [random_points(rng, 8) for _ in range(16)]
        direct = [direct_index.query_points(p) for p in payloads]

        svc = SpatialQueryService(
            RTSIndex(data, dtype=np.float64, seed=4),
            ServiceConfig(max_batch=16, cache_size=0),
            autostart=False,
        )
        futures = [svc.submit(Predicate.CONTAINS_POINT, p) for p in payloads]
        svc.start()
        results = [f.result(timeout=30) for f in futures]
        svc.close()

        assert svc.metrics.counter("serve.batches") == 1
        hist = svc.metrics.as_dict()["histograms"]["serve.batch_size"]
        assert hist["count"] == 1 and hist["max"] == 16
        for got, want in zip(results, direct):
            assert_pairs_equal(got.pairs(), want.pairs(), "coalesced")
            assert got.meta["batch_size"] == 16

    def test_batch16_beats_unbatched_sim_throughput(self, rng):
        """The acceptance claim: >=16-way batching must beat
        one-request-per-launch in simulated throughput (launch overhead
        amortization), on identical staged work."""
        data = random_boxes(rng, 500)
        payloads = [random_points(rng, 8) for _ in range(32)]
        sim = {}
        for max_batch in (1, 16):
            svc = SpatialQueryService(
                RTSIndex(data, dtype=np.float64, seed=4),
                ServiceConfig(max_batch=max_batch, cache_size=0),
                autostart=False,
            )
            futures = [svc.submit(Predicate.CONTAINS_POINT, p) for p in payloads]
            svc.start()
            for f in futures:
                f.result(timeout=60)
            sim[max_batch] = svc.metrics.counter("serve.sim_time")
            expected_batches = len(payloads) // max_batch
            assert svc.metrics.counter("serve.batches") == expected_batches
            svc.close()
        queries = len(payloads) * 8
        assert sim[16] < sim[1]
        assert queries / sim[16] > queries / sim[1]


class RecordingCondition(threading.Condition):
    """A Condition that records every ``wait`` timeout it is given."""

    def __init__(self, lock):
        super().__init__(lock)
        self.timeouts = []

    def wait(self, timeout=None):
        self.timeouts.append(timeout)
        return super().wait(timeout)


def _wait_for(predicate, timeout=30.0):
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "timed out"
        time.sleep(0.001)


@pytest.fixture
def held_launches(monkeypatch):
    """Record every launch the scheduler makes; the first one blocks
    until ``release`` is set, holding its batch open."""
    started, release = threading.Event(), threading.Event()
    launches = []
    real = service_mod.execute_batch

    def execute(index, batch, planner=None):
        launches.append([(r.predicate, r.n_queries) for r in batch])
        if len(launches) == 1:
            started.set()
            assert release.wait(30)
        return real(index, batch, planner=planner)

    monkeypatch.setattr(service_mod, "execute_batch", execute)
    yield started, release, launches
    release.set()


class TestDispatch:
    """The work-conserving rule: dispatch the compatible FIFO prefix that
    is queued when the scheduler is free, and never wait for more."""

    def test_lone_request_dispatches_without_timed_wait(self, rng):
        svc = SpatialQueryService(make_index(rng), autostart=False)
        cond = RecordingCondition(svc._lock)
        svc._cond = cond
        svc.start()
        try:
            _wait_for(lambda: cond.timeouts)  # scheduler parked, idle
            got = svc.query_points(random_points(rng, 4), timeout=30)
        finally:
            svc.close()
        assert got.meta["batch_size"] == 1
        assert cond.timeouts and all(t is None for t in cond.timeouts)

    def test_arrivals_during_a_launch_form_the_next_batch(self, rng, held_launches):
        started, release, launches = held_launches
        data = random_boxes(rng, 500)
        payloads = [random_points(rng, n) for n in (3, 5, 2, 7, 1, 4, 6)]
        direct_index = RTSIndex(data, dtype=np.float64, seed=4)
        direct = [direct_index.query_points(p) for p in payloads]
        svc = SpatialQueryService(
            RTSIndex(data, dtype=np.float64, seed=4),
            ServiceConfig(max_batch=4, cache_size=0),
        )
        try:
            futures = [svc.submit(Predicate.CONTAINS_POINT, payloads[0])]
            assert started.wait(30)
            # Arrivals from a second client thread while batch 1 runs.
            client = threading.Thread(
                target=lambda: futures.extend(
                    svc.submit(Predicate.CONTAINS_POINT, p) for p in payloads[1:]
                )
            )
            client.start()
            client.join(timeout=30)
            assert not client.is_alive()
            release.set()
            results = [f.result(timeout=30) for f in futures]
        finally:
            svc.close()
        assert [[n for _, n in launch] for launch in launches] == [
            [3], [5, 2, 7, 1], [4, 6],
        ]
        for got, want in zip(results, direct):
            assert_pairs_equal(got.pairs(), want.pairs(), "next batch")
        assert [r.meta["batch_size"] for r in results] == [1, 4, 4, 4, 4, 2, 2]

    def test_incompatible_head_closes_the_batch(self, rng, held_launches):
        started, release, launches = held_launches
        svc = SpatialQueryService(make_index(rng), ServiceConfig(cache_size=0))
        point, contains = Predicate.CONTAINS_POINT, Predicate.RANGE_CONTAINS
        try:
            futures = [svc.submit(point, random_points(rng, 1))]
            assert started.wait(30)
            futures += [
                svc.submit(point, random_points(rng, 2)),
                svc.submit(point, random_points(rng, 3)),
                svc.submit(contains, random_boxes(rng, 4)),
                svc.submit(point, random_points(rng, 5)),
            ]
            release.set()
            for f in futures:
                f.result(timeout=30)
        finally:
            svc.close()
        assert launches == [
            [(point, 1)], [(point, 2), (point, 3)], [(contains, 4)], [(point, 5)],
        ]

    def test_idle_queue_wait_is_far_below_the_old_linger(self, rng):
        """The service records each request's queue wait itself, cache
        hits included; on an idle service it is dispatch latency, not a
        2 ms linger."""
        pts = random_points(rng, 4)
        with SpatialQueryService(make_index(rng)) as svc:
            for _ in range(5):
                svc.query_points(pts, timeout=30)
            hist = svc.metrics.as_dict()["histograms"]["serve.queue_wait_us"]
            assert svc.metrics.counter("serve.cache.hits") == 4
        assert hist["count"] == 5
        assert hist["min"] < 1000.0  # the removed linger waited 2,000 us
