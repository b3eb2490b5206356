"""Compaction-under-concurrent-readers stress under REPRO_TSAN=1.

The churn variant of tests/serve/test_stress_lockorder.py: readers and a
mutating writer run against a churn-enabled service while the
:class:`~repro.churn.BackgroundCompactor` polls aggressively enough that
real compactions publish mid-stress. Every lock built by
:func:`repro.lockorder.make_lock` is an :class:`OrderedLock`, so the run
is a runtime proof that the compactor's rank-5 lock (held across
``service.compact()``) acquires in the documented global order even
while readers, the writer, and the compactor thread interleave.

The env flag is read at lock *construction*, so the service must be
built inside the test.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.churn import ChurnConfig
from repro.core.index import Predicate, RTSIndex
from repro.lockorder import LockOrderViolation, OrderedLock
from repro.serve import ServiceConfig, SpatialQueryService

from tests.conftest import assert_pairs_equal, random_boxes, random_points

N_READERS = 4
REQUESTS_PER_READER = 10
N_WRITES = 8


@pytest.mark.slow
def test_compaction_stress_under_lock_order_assertions(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")
    rng = np.random.default_rng(79)
    index = RTSIndex(random_boxes(rng, 300), dtype=np.float64, seed=7)
    # Triggers tuned so the background thread actually compacts during
    # the stress window, not just polls.
    churn = ChurnConfig(delta_ratio_max=0.1, refit_wear_max=4,
                        poll_interval=0.0005)
    config = ServiceConfig(max_queue_depth=128, max_batch=8, cache_size=16, churn=churn)
    responses = []
    resp_lock = threading.Lock()
    errors: list[Exception] = []

    with SpatialQueryService(index, config, retain_snapshots=True) as svc:
        assert isinstance(svc._lock, OrderedLock)
        assert isinstance(svc.compactor._lock, OrderedLock)

        def reader(cid: int) -> None:
            r = np.random.default_rng((79, cid))
            try:
                for i in range(REQUESTS_PER_READER):
                    if i % 2 == 0:
                        predicate = Predicate.CONTAINS_POINT
                        payload = random_points(r, 10)
                    else:
                        predicate = Predicate.RANGE_INTERSECTS
                        payload = random_boxes(r, 8)
                    result = svc.query(predicate, payload)
                    with resp_lock:
                        responses.append((predicate, payload, result))
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        def writer() -> None:
            w = np.random.default_rng(80)
            live_base = 300
            try:
                for i in range(N_WRITES):
                    ids = svc.insert(random_boxes(w, 24))
                    if i % 2:
                        # Main-resident deletes tombstone; delta deletes
                        # refit — both paths run under the order checker.
                        svc.delete(np.arange(i * 8, i * 8 + 8))
                        svc.update(ids[:4], random_boxes(w, 4))
                        live_base -= 8
                    time.sleep(0.002)
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        threads = [
            threading.Thread(target=reader, args=(cid,)) for cid in range(N_READERS)
        ]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        violations = [e for e in errors if isinstance(e, LockOrderViolation)]
        assert not violations, violations
        assert not errors, errors
        assert len(responses) == N_READERS * REQUESTS_PER_READER

        # The stress is only meaningful if compactions actually published
        # while readers were in flight.
        assert svc.compactor.n_compactions >= 1

        # Order assertions and concurrent compaction must not have
        # perturbed results: serial replay against retained snapshots.
        for predicate, payload, res in responses:
            snap = svc.snapshot_at(res.meta["epoch"])
            expected = snap.query(predicate, payload)
            assert_pairs_equal(res.pairs(), expected.pairs(), predicate.value)


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_poll_under_service_lock_fails_the_query(monkeypatch):
    """The scheduler polling the compactor while it holds the service
    lock: poll() takes churn.compactor (rank 5) under serve.service
    (rank 10), and compact() would then re-take serve.service, against
    a compactor thread that holds the two in the other order. The order
    check must raise before blocking, and the scheduler must hand the
    violation to the waiting query instead of dying with it."""
    from repro.serve import ServiceClosed
    from repro.serve import service as service_module

    monkeypatch.setenv("REPRO_TSAN", "1")
    rng = np.random.default_rng(81)
    index = RTSIndex(random_boxes(rng, 200), dtype=np.float64, seed=7)
    config = ServiceConfig(cache_size=0,
                           churn=ChurnConfig(poll_interval=0.0005))
    take_compatible = service_module.take_compatible
    svc = SpatialQueryService(index, config)

    def polling_take(pending, max_batch):
        svc.compactor.poll()  # the seeded bug: runs under serve.service
        return take_compatible(pending, max_batch)

    monkeypatch.setattr(service_module, "take_compatible", polling_take)
    try:
        fut = svc.submit(Predicate.CONTAINS_POINT, random_points(rng, 8))
        with pytest.raises(LockOrderViolation, match="'churn.compactor' \\(rank 5\\)"):
            fut.result(timeout=10)
        with pytest.raises(ServiceClosed):
            svc.query_points(random_points(rng, 8))
    finally:
        svc.close()
