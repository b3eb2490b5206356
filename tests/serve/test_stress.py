"""Concurrency stress: snapshot isolation under readers + writer.

The acceptance property (ISSUE 4): with >= 4 reader threads querying
through the service while one writer mutates it, every response must be
pair-identical to a serial replay of the same payload against the exact
epoch snapshot it was served from. Epoch pinning means a response is
internally consistent — it can be *stale* relative to the newest write,
but never torn.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.serve import ServiceConfig, SpatialQueryService

from tests.conftest import assert_pairs_equal, random_boxes, random_points

N_READERS = 4
REQUESTS_PER_READER = 18
N_WRITES = 10


@pytest.mark.slow
def test_snapshot_isolation_under_concurrent_writes():
    rng = np.random.default_rng(2024)
    index = RTSIndex(random_boxes(rng, 350), dtype=np.float64, seed=11)
    config = ServiceConfig(max_queue_depth=256, max_batch=8, cache_size=32)
    responses = []  # (predicate, payload, k, result)
    resp_lock = threading.Lock()
    errors = []

    with SpatialQueryService(index, config, retain_snapshots=True) as svc:
        epoch0 = svc.epoch

        def reader(cid: int) -> None:
            r = np.random.default_rng((2024, cid))
            try:
                for i in range(REQUESTS_PER_READER):
                    roll = i % 3
                    if roll == 0:
                        predicate = Predicate.CONTAINS_POINT
                        payload = random_points(r, 12)
                        k = None
                    elif roll == 1:
                        predicate = Predicate.RANGE_CONTAINS
                        payload = random_boxes(r, 10)
                        k = None
                    else:
                        predicate = Predicate.RANGE_INTERSECTS
                        payload = random_boxes(r, 10)
                        k = 2  # pinned: replay must not depend on RNG state
                    result = svc.query(predicate, payload, k=k)
                    with resp_lock:
                        responses.append((predicate, payload, k, result))
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        def writer() -> None:
            w = np.random.default_rng(555)
            try:
                for i in range(N_WRITES):
                    live = len(svc.snapshot())
                    op = i % 4
                    if op == 0:
                        svc.insert(random_boxes(w, 24))
                    elif op == 1:
                        svc.delete(w.integers(0, live, size=20))
                    elif op == 2:
                        ids = np.unique(w.integers(0, live, size=20))
                        svc.update(ids, random_boxes(w, len(ids)))
                    else:
                        svc.rebuild()
                    time.sleep(0.002)  # interleave with reader batches
            except Exception as err:  # pragma: no cover - failure reporting
                errors.append(err)

        threads = [
            threading.Thread(target=reader, args=(cid,), name=f"reader-{cid}")
            for cid in range(N_READERS)
        ]
        threads.append(threading.Thread(target=writer, name="writer"))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors, errors
        assert len(responses) == N_READERS * REQUESTS_PER_READER
        assert svc.epoch == epoch0 + N_WRITES

        epochs_served = {res.meta["epoch"] for _, _, _, res in responses}
        assert len(epochs_served) > 1, "writer never interleaved with readers"

        # Serial replay: every response must match its own epoch exactly.
        for predicate, payload, k, result in responses:
            snap = svc.snapshot_at(result.meta["epoch"])
            expected = snap.query(predicate, payload, k=k)
            assert_pairs_equal(
                result.pairs(),
                expected.pairs(),
                f"{predicate.value}@epoch{result.meta['epoch']}",
            )


@pytest.mark.slow
def test_cache_never_crosses_epochs_under_writes():
    """Hammer one repeated payload while the writer bumps epochs: every
    cache hit must carry the epoch it was computed at, and its pairs must
    equal that epoch's direct answer."""
    rng = np.random.default_rng(31)
    index = RTSIndex(random_boxes(rng, 250), dtype=np.float64, seed=13)
    pts = random_points(rng, 15)
    stop = threading.Event()
    got = []
    errors = []

    with SpatialQueryService(
        index,
        ServiceConfig(cache_size=8),
        retain_snapshots=True,
    ) as svc:

        def reader() -> None:
            try:
                while not stop.is_set():
                    got.append(svc.query_points(pts))
            except Exception as err:  # pragma: no cover
                errors.append(err)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        w = np.random.default_rng(32)
        for _ in range(8):
            svc.insert(random_boxes(w, 12))
            time.sleep(0.002)
        stop.set()
        for t in threads:
            t.join()

        assert not errors, errors
        # Whether the racing readers themselves landed a hit is
        # timing-dependent (on a single core the writer can bump the
        # epoch between every repeat); force one deterministic
        # same-epoch repeat now that the writer is done so the
        # hit-carries-its-epoch property below is always exercised.
        got.append(svc.query_points(pts))
        got.append(svc.query_points(pts))
        assert any(r.meta["cache_hit"] for r in got), "cache never hit"
        for res in got:
            snap = svc.snapshot_at(res.meta["epoch"])
            expected = snap.query_points(np.ascontiguousarray(pts))
            assert_pairs_equal(
                res.pairs(), expected.pairs(), f"epoch {res.meta['epoch']}"
            )
