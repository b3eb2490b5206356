"""Concurrency stress under REPRO_TSAN=1 lock-order assertions.

Same reader/writer shape as test_stress.py, but every lock built by
:func:`repro.lockorder.make_lock` is an :class:`OrderedLock` that raises
the moment any thread — reader, writer, scheduler, or load generator —
acquires out of the documented global order. A passing run is a runtime
proof that the real interleavings follow it.

The env flag is read at lock *construction*, so the service must be
built inside the test (module-level locks like the executor's pool
registry predate the flag and stay plain: they are leaf-ranked anyway).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.lockorder import LockOrderViolation, OrderedLock
from repro.serve import ServiceConfig, SpatialQueryService

from tests.conftest import assert_pairs_equal, random_boxes, random_points

N_READERS = 4
REQUESTS_PER_READER = 10
N_WRITES = 6


@pytest.mark.slow
def test_stress_under_lock_order_assertions(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")
    rng = np.random.default_rng(77)
    index = RTSIndex(random_boxes(rng, 300), dtype=np.float64, seed=7)
    config = ServiceConfig(max_queue_depth=128, max_batch=8, cache_size=16)
    responses = []
    resp_lock = threading.Lock()
    errors: list[Exception] = []

    with SpatialQueryService(index, config, retain_snapshots=True) as svc:
        # The flag was up when the service built its locks.
        assert isinstance(svc._lock, OrderedLock)

        def reader(cid: int) -> None:
            r = np.random.default_rng((77, cid))
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
            w = np.random.default_rng(78)
            try:
                for _ in range(N_WRITES):
                    svc.insert(random_boxes(w, 16))
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

        # Order assertions must not have perturbed results: serial replay.
        for predicate, payload, res in responses:
            snap = svc.snapshot_at(res.meta["epoch"])
            expected = snap.query(predicate, payload)
            assert_pairs_equal(res.pairs(), expected.pairs(), predicate.value)
