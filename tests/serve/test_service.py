"""SpatialQueryService: admission, deadlines, lifecycle, equivalence."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.serve import (
    DeadlineExceeded,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    SpatialQueryService,
)

from tests.conftest import assert_pairs_equal, random_boxes, random_points


def make_index(rng, n=400, seed=9):
    return RTSIndex(random_boxes(rng, n), dtype=np.float64, seed=seed)


def assert_results_equal(got, want, context=""):
    """Pairs, phases, traversal counters and k equal, bit for bit."""
    assert_pairs_equal(got.pairs(), want.pairs(), context)
    assert got.phases == want.phases, context
    for key in ("stats", "forward_stats", "backward_stats", "k", "n_candidates"):
        assert got.meta.get(key) == want.meta.get(key), f"{context}: {key}"


@pytest.fixture
def service(rng):
    svc = SpatialQueryService(make_index(rng), ServiceConfig(max_wait=0.0))
    yield svc
    svc.close()


class TestEquivalence:
    """A service response must equal the direct index call, pair for pair."""

    @pytest.mark.parametrize(
        "predicate", [Predicate.CONTAINS_POINT, Predicate.RANGE_CONTAINS,
                      Predicate.RANGE_INTERSECTS]
    )
    def test_matches_direct_query(self, rng, predicate):
        data = random_boxes(rng, 400)
        direct = RTSIndex(data, dtype=np.float64, seed=9)
        if predicate is Predicate.CONTAINS_POINT:
            payload = random_points(rng, 120)
        else:
            payload = random_boxes(rng, 120)
        # The service plans by default (ServiceConfig.planner="auto"), so
        # the equivalent direct run is the planned one: the stateless
        # planner makes the same decision on both sides, and phases /
        # pairs must match bit-for-bit. (Pair equality also holds against
        # an unplanned run — the planner never changes answers — but
        # phase timings are backend-specific.)
        expected = direct.query(predicate, payload, planner="auto")
        with SpatialQueryService(
            RTSIndex(data, dtype=np.float64, seed=9), ServiceConfig(max_wait=0.0)
        ) as svc:
            got = svc.query(predicate, payload)
        assert_pairs_equal(got.pairs(), expected.pairs(), predicate.value)
        assert got.phases == expected.phases
        assert got.meta["epoch"] == direct.epoch
        assert got.meta["batch_size"] == 1
        assert got.meta["cache_hit"] is False

    def test_predicate_helpers(self, service, rng):
        pts = random_points(rng, 30)
        qs = random_boxes(rng, 30)
        a = service.query_points(pts)
        b = service.query(Predicate.CONTAINS_POINT, pts)
        assert_pairs_equal(a.pairs(), b.pairs(), "points helper")
        assert len(service.query_contains(qs)) >= 0
        assert len(service.query_intersects(qs, k=2)) >= 0

    def test_pinned_k_round_trips(self, service, rng):
        res = service.query_intersects(random_boxes(rng, 40), k=3)
        assert res.meta["k"] == 3

    def test_mutations_publish_epochs(self, service, rng):
        epoch0 = service.epoch
        ids = service.insert(random_boxes(rng, 16))
        assert service.epoch == epoch0 + 1 and len(ids) == 16
        service.update(ids[:4], random_boxes(rng, 4))
        service.delete(ids[4:8])
        service.rebuild()
        assert service.epoch == epoch0 + 4
        res = service.query_points(random_points(rng, 50))
        assert res.meta["epoch"] == epoch0 + 4
        assert service.metrics.counter("serve.mutations") == 4


class TestServedGrid:
    """Builder x ndim x mutation x predicate: a served request equals the
    same query on a direct twin that replayed the same mutations."""

    @staticmethod
    def twins(rng, builder, ndim, seed):
        data = random_boxes(rng, 600, d=ndim)
        kw = {"leaf_size": 2} if builder == "fast_trace" else {}
        return [
            RTSIndex(data, ndim=ndim, builder=builder, dtype=np.float64, seed=seed, **kw)
            for _ in range(2)
        ]

    @staticmethod
    def mutate(rng, ndim, targets):
        """Apply one insert/delete/update sequence to every target (a
        service or an index) with the same data."""
        new = random_boxes(rng, 60, d=ndim)
        moved = random_boxes(rng, 10, d=ndim)
        for t in targets:
            t.insert(new)
            t.delete(np.arange(0, 200, 3))
            t.update(np.arange(10), moved)

    @pytest.mark.parametrize(
        "predicate", [Predicate.CONTAINS_POINT, Predicate.RANGE_CONTAINS,
                      Predicate.RANGE_INTERSECTS]
    )
    @pytest.mark.parametrize("mutate", [False, True])
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("builder", ["fast_build", "fast_trace"])
    def test_grid_bit_identical(self, rng, builder, ndim, mutate, predicate):
        direct, seed_index = self.twins(rng, builder, ndim, seed=100 + ndim)
        with SpatialQueryService(
            seed_index, ServiceConfig(max_wait=0.0, planner=None, cache_size=0)
        ) as svc:
            if mutate:
                self.mutate(rng, ndim, [svc, direct])
            if predicate is Predicate.CONTAINS_POINT:
                payload, k = random_points(rng, 400, d=ndim), None
            elif predicate is Predicate.RANGE_CONTAINS:
                payload, k = random_boxes(rng, 200, d=ndim, max_extent=10.0), None
            else:
                payload, k = random_boxes(rng, 30, d=ndim), 2
            got = svc.query(predicate, payload, k=k)
            epoch = svc.epoch
        want = direct.query(predicate, payload, k=k, planner="off")
        assert_results_equal(got, want, f"{builder} ndim={ndim} mutate={mutate}")
        assert got.meta["epoch"] == epoch
        assert got.meta["batch_size"] == 1

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_unpinned_k_matches_direct(self, rng, ndim):
        """k=None consumes the snapshot RNG once, in the scheduler, so the
        chosen k and the whole response match the direct run."""
        direct, seed_index = self.twins(rng, "fast_build", ndim, seed=42)
        q = random_boxes(rng, 25, d=ndim)
        with SpatialQueryService(
            seed_index, ServiceConfig(max_wait=0.0, planner=None, cache_size=0)
        ) as svc:
            got = svc.query_intersects(q)
        want = direct.query(Predicate.RANGE_INTERSECTS, q, planner="off")
        assert_results_equal(got, want, f"k=None ndim={ndim}")
        assert got.meta["k"] >= 1


def run_session(cache_size, steps=4):
    """One deterministic client session with an insert every other step;
    returns a per-response summary."""
    rng = np.random.default_rng(31)
    rows = []
    with SpatialQueryService(
        RTSIndex(random_boxes(rng, 1200), dtype=np.float64, seed=9),
        ServiceConfig(max_wait=0.0, planner=None, cache_size=cache_size),
    ) as svc:
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
                rows.append((r.pairs(), dict(r.phases), r.meta["epoch"],
                             r.meta.get("k"), r.meta.get("cache_hit")))
            if step % 2 == 0:
                svc.insert(random_boxes(rng, 25))
    return rows


class TestEpochReplay:
    @pytest.mark.parametrize("cache_size", [0, 64])
    def test_session_replays_bit_identical(self, cache_size):
        a = run_session(cache_size)
        b = run_session(cache_size)
        assert len(a) == len(b) == 16
        for i, (ra, rb) in enumerate(zip(a, b)):
            assert_pairs_equal(ra[0], rb[0], f"response {i}")
            assert ra[1:] == rb[1:], i
        # The repeated point query answers as the first one did, from the
        # cache when it is on.
        for step in range(4):
            first, again = a[4 * step], a[4 * step + 2]
            assert_pairs_equal(again[0], first[0], f"step {step}")
            assert again[2] == first[2]
            assert again[4] is (cache_size > 0)

    @pytest.mark.parametrize("cache_size", [0, 64])
    def test_replay_against_retained_snapshot(self, rng, cache_size):
        """Each served response replays bit-identically on a direct query
        of the retained snapshot it names."""
        served = []
        with SpatialQueryService(
            make_index(rng, n=800),
            ServiceConfig(max_wait=0.0, planner=None, cache_size=cache_size),
            retain_snapshots=True,
        ) as svc:
            for _ in range(3):
                pts = random_points(rng, 200)
                served.append((pts, svc.query_points(pts)))
                svc.insert(random_boxes(rng, 15))
            assert len({r.meta["epoch"] for _, r in served}) == 3
            for pts, r in served:
                snap = svc.snapshot_at(r.meta["epoch"])
                direct = snap.query(Predicate.CONTAINS_POINT, pts, planner="off")
                assert_results_equal(r, direct, f"epoch {r.meta['epoch']}")


class TestAdmission:
    def test_overload_rejected(self, rng):
        svc = SpatialQueryService(
            make_index(rng),
            ServiceConfig(max_queue_depth=2, max_wait=0.0),
            autostart=False,
        )
        try:
            pts = random_points(rng, 4)
            svc.submit(Predicate.CONTAINS_POINT, pts)
            svc.submit(Predicate.CONTAINS_POINT, pts)
            assert svc.queue_depth == 2
            with pytest.raises(ServiceOverloaded):
                svc.submit(Predicate.CONTAINS_POINT, pts)
            assert svc.metrics.counter("serve.rejected") == 1
        finally:
            svc.close()

    def test_admitted_work_drains_on_start(self, rng):
        svc = SpatialQueryService(
            make_index(rng), ServiceConfig(max_wait=0.0), autostart=False
        )
        futures = [
            svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 8))
            for _ in range(5)
        ]
        svc.start()
        for fut in futures:
            fut.result(timeout=30)
        svc.close()

    def test_malformed_payload_fails_in_caller(self, service):
        with pytest.raises(ValueError):
            service.submit(Predicate.CONTAINS_POINT, np.zeros((3, 5)))  # ndim
        with pytest.raises(ValueError):
            service.submit("not-a-predicate", np.zeros((3, 2)))

    def test_expired_deadline(self, rng):
        svc = SpatialQueryService(
            make_index(rng), ServiceConfig(max_wait=0.0), autostart=False
        )
        fut = svc.submit(
            Predicate.CONTAINS_POINT, random_points(rng, 8), timeout=1e-4
        )
        import time

        time.sleep(0.01)  # deadline passes while staged
        svc.start()
        with pytest.raises(DeadlineExceeded):
            fut.result(timeout=30)
        assert svc.metrics.counter("serve.deadline_missed") == 1
        svc.close()


class TestLifecycle:
    def test_close_drains_pending(self, rng):
        svc = SpatialQueryService(
            make_index(rng), ServiceConfig(max_wait=0.0), autostart=False
        )
        futures = [
            svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 8))
            for _ in range(4)
        ]
        svc.start()
        svc.close(drain=True)
        assert all(f.result(timeout=1) is not None for f in futures)

    def test_close_without_start_fails_staged(self, rng):
        svc = SpatialQueryService(
            make_index(rng), ServiceConfig(max_wait=0.0), autostart=False
        )
        fut = svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 8))
        svc.close()
        with pytest.raises(ServiceClosed):
            fut.result(timeout=1)

    def test_submit_after_close_raises(self, service, rng):
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(Predicate.CONTAINS_POINT, random_points(rng, 4))
        with pytest.raises(ServiceClosed):
            service.insert(random_boxes(rng, 4))

    @pytest.mark.parametrize("drain", [True, False])
    def test_close_skips_cancelled_staged_request(self, rng, drain):
        svc = SpatialQueryService(make_index(rng), autostart=False)
        fut = svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 4))
        assert fut.cancel()
        svc.close(drain=drain)
        assert fut.cancelled()

    def test_close_idempotent(self, service):
        service.close()
        service.close()

    def test_context_manager(self, rng):
        with SpatialQueryService(make_index(rng), ServiceConfig(max_wait=0.0)) as svc:
            assert len(svc.query_points(random_points(rng, 10))) >= 0
        with pytest.raises(ServiceClosed):
            svc.query_points(random_points(rng, 10))

    def test_close_releases_executor_pools(self, rng):
        from repro.parallel import executor as ex

        before = dict(ex._pool_refs)
        svc = SpatialQueryService(
            RTSIndex(random_boxes(rng, 200), dtype=np.float64, seed=3,
                     parallel=True, n_workers=2),
            ServiceConfig(max_wait=0.0),
        )
        svc.query_points(random_points(rng, 20))
        # Small batches stay serial, so pin a real pool reference on the
        # snapshot's executor for close() to drop.
        svc.snapshot()._executor._pool()
        svc.close()
        assert ex._pool_refs == before


class TestMetrics:
    def test_counters_and_latency(self, service, rng):
        for _ in range(3):
            service.query_points(random_points(rng, 16))
        m = service.metrics
        assert m.counter("serve.requests") == 3
        assert m.counter("serve.completed") == 3
        assert m.counter("serve.batches") >= 1
        assert m.counter("serve.sim_time") > 0
        q = service.latency_quantiles()
        assert q["p99_us"] >= q["p50_us"] > 0

    def test_serve_batch_span(self, rng):
        from repro.obs import Tracer

        tracer = Tracer()
        with SpatialQueryService(
            make_index(rng), ServiceConfig(max_wait=0.0), tracer=tracer
        ) as svc:
            svc.query_points(random_points(rng, 16))
        names = [s.name for s in tracer.spans()]
        assert "serve.batch" in names
        batch_span = next(s for s in tracer.spans() if s.name == "serve.batch")
        assert batch_span.attrs["epoch"] == svc.epoch
        assert batch_span.attrs["batch_size"] == 1

    def test_scheduler_survives_query_error(self, service, rng):
        # Force an execution failure: k pinned on a predicate that
        # ignores it is fine, so instead poison with an unindexable k.
        fut = service.submit(
            Predicate.RANGE_INTERSECTS, random_boxes(rng, 4), k=-17
        )
        with pytest.raises(Exception):
            fut.result(timeout=30)
        # The scheduler must still serve afterwards.
        assert len(service.query_points(random_points(rng, 8))) >= 0


class TestScheduler:
    """One batch per scheduler turn: a batch is a FIFO-prefix run of
    compatible requests, and a failed batch fails only its own requests."""

    @staticmethod
    def stage(svc, rng, n):
        """``n`` staged requests alternating predicates, so each is its
        own batch."""
        futs = []
        for i in range(n):
            if i % 2 == 0:
                futs.append(svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 20)))
            else:
                futs.append(svc.submit(Predicate.RANGE_CONTAINS, random_boxes(rng, 8)))
        return futs

    def test_incompatible_requests_are_separate_batches(self, rng):
        svc = SpatialQueryService(
            make_index(rng, n=300),
            ServiceConfig(planner=None, cache_size=0),
            autostart=False,
        )
        try:
            futs = self.stage(svc, rng, 6)
            svc.start()
            for f in futs:
                f.result(timeout=120)
            counters = svc.metrics.as_dict()["counters"]
        finally:
            svc.close()
        assert counters["serve.batches"] == 6
        assert "serve.batch_errors" not in counters

    def test_failed_batch_fails_every_request(self, rng, monkeypatch):
        from repro.serve import service as service_module

        svc = SpatialQueryService(
            make_index(rng, n=300),
            ServiceConfig(planner=None, cache_size=0),
            autostart=False,
        )

        def broken(snapshot, requests, planner):
            raise RuntimeError("execution failed")

        monkeypatch.setattr(service_module, "execute_batch", broken)
        try:
            futs = self.stage(svc, rng, 3)
            svc.start()
            for f in futs:
                with pytest.raises(RuntimeError, match="execution failed"):
                    f.result(timeout=120)
            counters = svc.metrics.as_dict()["counters"]
            assert counters["serve.batch_errors"] == 3
            assert "serve.batches" not in counters
            # The scheduler survives: a later request is served.
            monkeypatch.undo()
            pts = random_points(rng, 16)
            got = svc.query_points(pts)
            expected = svc.snapshot().query(Predicate.CONTAINS_POINT, pts, planner="off")
            assert_pairs_equal(got.pairs(), expected.pairs(), "after failures")
        finally:
            svc.close()
        assert svc.metrics.counter("serve.batches") == 1

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_scheduler_fault_fails_clients_and_closes(self, rng, monkeypatch):
        """A fault outside execute_batch's try (here the cache insert
        after a batch executed) must not strand clients: the collected
        batch and the queued requests fail with the error, the service
        closes, and close() still returns."""
        svc = SpatialQueryService(
            make_index(rng, n=300),
            ServiceConfig(planner=None, cache_size=16),
            autostart=False,
        )

        def broken_put(key, result):
            raise RuntimeError("cache insert failed")

        monkeypatch.setattr(svc.cache, "put", broken_put)
        try:
            batch = [
                svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 8))
                for _ in range(2)
            ]
            queued = svc.submit(Predicate.RANGE_CONTAINS, random_boxes(rng, 4))
            svc.start()
            for fut in [*batch, queued]:
                with pytest.raises(RuntimeError, match="cache insert failed"):
                    fut.result(timeout=10)
            with pytest.raises(ServiceClosed):
                svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 8))
        finally:
            svc.close()
        assert svc._thread is None

    def test_cancelled_request_is_dropped(self, rng):
        """A client cancelling its queued future drops that request only;
        completing a cancelled future would raise in the scheduler."""
        svc = SpatialQueryService(
            make_index(rng, n=300),
            ServiceConfig(planner=None, cache_size=0),
            autostart=False,
        )
        try:
            cancelled, kept = self.stage(svc, rng, 2)
            assert cancelled.cancel()
            svc.start()
            kept.result(timeout=10)
            svc.query_points(random_points(rng, 8))  # still open
        finally:
            svc.close()
        assert svc.metrics.counter("serve.completed") == 2

    @pytest.mark.parametrize("max_batch", [1, 4, 32])
    def test_burst_splits_at_max_batch(self, rng, max_batch):
        """Twelve staged compatible requests run as ceil(12 / max_batch)
        launches, and every response equals its direct answer."""
        svc = SpatialQueryService(
            make_index(rng, n=300),
            ServiceConfig(max_batch=max_batch, max_wait=0.0, planner=None, cache_size=0),
            autostart=False,
        )
        payloads = [random_points(rng, 20) for _ in range(12)]
        try:
            futs = [svc.submit(Predicate.CONTAINS_POINT, p) for p in payloads]
            svc.start()
            results = [f.result(timeout=120) for f in futs]
            snapshot = svc.snapshot()
        finally:
            svc.close()
        expected_batches = math.ceil(12 / max_batch)
        assert svc.metrics.counter("serve.batches") == expected_batches
        assert svc.metrics.counter("serve.batched_requests") == 12
        hist = svc.metrics.as_dict()["histograms"]["serve.batch_size"]
        assert hist["count"] == expected_batches and hist["max"] == min(max_batch, 12)
        for i, (got, pts) in enumerate(zip(results, payloads)):
            want = snapshot.query(Predicate.CONTAINS_POINT, pts, planner="off")
            assert_pairs_equal(got.pairs(), want.pairs(), f"request {i}")
            assert got.meta["batch_size"] == min(max_batch, 12)

    def test_query_error_fails_only_its_batch(self, rng):
        """A request that raises inside execution fails its own batch;
        the batches staged around it are served."""
        svc = SpatialQueryService(
            make_index(rng, n=300),
            ServiceConfig(max_wait=0.0, planner=None, cache_size=0),
            autostart=False,
        )
        before, after = random_points(rng, 30), random_points(rng, 30)
        try:
            good = svc.submit(Predicate.CONTAINS_POINT, before)
            bad = svc.submit(Predicate.RANGE_INTERSECTS, random_boxes(rng, 4), k=-17)
            later = svc.submit(Predicate.CONTAINS_POINT, after)
            svc.start()
            with pytest.raises(Exception):
                bad.result(timeout=120)
            snapshot = svc.snapshot()
            for fut, pts in ((good, before), (later, after)):
                want = snapshot.query(Predicate.CONTAINS_POINT, pts, planner="off")
                assert_pairs_equal(fut.result(timeout=120).pairs(), want.pairs(), "good")
        finally:
            svc.close()
        counters = svc.metrics.as_dict()["counters"]
        assert counters["serve.batch_errors"] == 1
        assert counters["serve.batches"] == 2
        assert counters["serve.completed"] == 2

    def test_one_batch_per_turn_accounting(self, rng):
        """Each scheduler turn is one ``serve.batch`` span and one
        ``serve.batches`` count; there is no wave above the batch."""
        from repro.obs import Tracer

        tracer = Tracer()
        svc = SpatialQueryService(
            make_index(rng, n=300),
            ServiceConfig(max_batch=4, max_wait=0.0, planner=None, cache_size=0),
            tracer=tracer,
            autostart=False,
        )
        try:
            futs = self.stage(svc, rng, 3) + [
                svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 10))
                for _ in range(5)
            ]
            svc.start()
            for f in futs:
                f.result(timeout=120)
        finally:
            svc.close()
        counters = svc.metrics.as_dict()["counters"]
        # Turns: P | C | P P P P | P P (the five trailing point requests
        # join the third staged one up to max_batch=4).
        assert counters["serve.batches"] == 4
        assert counters["serve.batched_requests"] == 8
        assert counters["serve.sim_time"] > 0.0
        assert not any(name.startswith("serve.wave") for name in counters)
        names = [s.name for s in tracer.spans()]
        assert names.count("serve.batch") == 4
        assert not any(name.startswith("serve.wave") for name in names)
        sizes = [s.attrs["batch_size"] for s in tracer.spans() if s.name == "serve.batch"]
        assert sizes == [1, 1, 4, 2]


class TestRetainSnapshots:
    def test_retain_all_keeps_every_epoch(self, rng):
        svc = SpatialQueryService(
            make_index(rng, n=200),
            ServiceConfig(max_wait=0.0, planner=None),
            retain_snapshots=True,
        )
        pts = random_points(rng, 60)
        try:
            answers = {svc.epoch: svc.query_points(pts)}
            for _ in range(4):
                svc.insert(random_boxes(rng, 10))
                answers[svc.epoch] = svc.query_points(pts)
            assert len(answers) == 5
            for epoch, served in answers.items():
                snap = svc.snapshot_at(epoch)
                assert snap.epoch == epoch
                want = snap.query(Predicate.CONTAINS_POINT, pts, planner="off")
                assert_pairs_equal(served.pairs(), want.pairs(), f"epoch {epoch}")
        finally:
            svc.close()

    def test_default_retains_nothing(self, rng):
        svc = SpatialQueryService(
            make_index(rng, n=200), ServiceConfig(max_wait=0.0, planner=None)
        )
        try:
            svc.insert(random_boxes(rng, 10))
            with pytest.raises(RuntimeError, match="retain"):
                svc.snapshot_at(svc.epoch)
        finally:
            svc.close()

    @pytest.mark.parametrize("retain", [False, True])
    def test_superseded_epoch_executor(self, rng, retain):
        """Without retention the scheduler closes a superseded snapshot's
        executor once it serves the next epoch; retained snapshots keep
        theirs for replay."""
        svc = SpatialQueryService(
            RTSIndex(random_boxes(rng, 200), dtype=np.float64, seed=3,
                     parallel=True, n_workers=2),
            ServiceConfig(max_wait=0.0, planner=None),
            retain_snapshots=retain,
        )
        try:
            pts = random_points(rng, 20)
            svc.query_points(pts)
            old = svc.snapshot()
            old_ex = old._executor
            old_ex._pool()  # a real pool reference for close() to drop
            svc.insert(random_boxes(rng, 10))
            svc.query_points(pts)  # first batch on the new epoch
            assert svc.snapshot() is not old
            assert old_ex._closed is not retain
            assert (old._executor is old_ex) is retain
            # A closed snapshot stays queryable for external holders.
            assert len(old.query_points(pts).pairs()[0]) >= 0
        finally:
            svc.close()


class TestConfig:
    def test_no_workers_option(self):
        """In-process serving is the one serving path: ``ServiceConfig``
        has no worker-count field."""
        names = [f.name for f in dataclasses.fields(ServiceConfig)]
        assert names == [
            "max_queue_depth", "max_batch", "max_wait", "cache_size",
            "default_timeout", "planner", "churn",
        ]
        with pytest.raises(TypeError):
            ServiceConfig(workers=2)
