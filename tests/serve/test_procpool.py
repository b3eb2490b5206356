"""Process-pool dispatch: cross-process equivalence, epoch lifecycle,
worker-fault recovery, and segment-leak accounting."""

from __future__ import annotations

import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.geometry.boxes import Boxes
from repro.serve.errors import WorkerFailed
from repro.serve.procpool import HashRing, ProcessPool

from tests.conftest import assert_pairs_equal, random_boxes, random_points


def make_index(rng, n=800, ndim=2, seed=5):
    return RTSIndex(
        random_boxes(rng, n, d=ndim), ndim=ndim, dtype=np.float64, seed=seed
    )


def assert_results_equal(got, want, context=""):
    assert not isinstance(got, Exception), got
    assert_pairs_equal(got.pairs(), want.pairs(), context)
    assert set(got.phases) == set(want.phases), context
    for ph in got.phases:
        assert got.phases[ph] == want.phases[ph], f"{context}: {ph}"
    for key in ("stats", "forward_stats", "backward_stats", "k", "n_candidates"):
        assert got.meta.get(key) == want.meta.get(key), f"{context}: {key}"


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


@pytest.fixture
def pool():
    # Per-test: a pool serves one index lineage (publish() enforces it).
    with ProcessPool(2, min_shard=64) as p:
        yield p


class TestEquivalence:
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("mutate", [False, True])
    def test_grid_bit_identical(self, rng, pool, ndim, mutate):
        """predicate x ndim x mutation: pairs, phases, counters and k all
        equal the in-process run, bit for bit."""
        idx = make_index(rng, ndim=ndim, seed=100 + ndim)
        if mutate:
            idx = idx.fork()
            idx.insert(random_boxes(rng, 60, d=ndim))
            idx.delete(np.arange(0, 200, 3))
            idx.update(
                np.arange(10), random_boxes(rng, 10, d=ndim)
            )
        snap = idx.fork()
        pts = random_points(rng, 400, d=ndim)
        q = random_boxes(rng, 30, d=ndim)
        cq = random_boxes(rng, 200, d=ndim, max_extent=10.0)
        specs = [
            (Predicate.CONTAINS_POINT, np.ascontiguousarray(pts, dtype=snap.dtype), None),
            (Predicate.RANGE_CONTAINS, cq.astype(snap.dtype), None),
            (Predicate.RANGE_INTERSECTS, q.astype(snap.dtype), 2),
        ]
        want = [
            snap.query(pred, payload, k=k, planner="off")
            for pred, payload, k in specs
        ]
        results, wave_sim = pool.dispatch(snap, specs)
        for got, ref, (pred, _, _) in zip(results, want, specs):
            assert_results_equal(got, ref, f"ndim={ndim} mutate={mutate} {pred.value}")
        assert wave_sim > 0.0

    def test_unpinned_k_resolved_centrally(self, rng, pool):
        """k=None consumes the snapshot RNG exactly once, centrally, so
        the chosen k and the whole response match in-process."""
        idx = make_index(rng, seed=42)
        ref_snap = idx.fork()
        q = random_boxes(rng, 25)
        want = ref_snap.query(Predicate.RANGE_INTERSECTS, q, planner="off")
        pool_snap = idx.fork()
        results, _ = pool.dispatch(
            pool_snap, [(Predicate.RANGE_INTERSECTS, q.astype(idx.dtype), None)]
        )
        assert_results_equal(results[0], want, "k=None")
        assert results[0].meta["k"] == want.meta["k"]

    def test_epoch_replay_bit_identical(self, rng, pool):
        """The same query re-dispatched against the same published epoch
        replays bit-identically (workers reuse the attachment)."""
        snap = make_index(rng, seed=77).fork()
        pts = random_points(rng, 300)
        spec = [(Predicate.CONTAINS_POINT, np.ascontiguousarray(pts, dtype=snap.dtype), None)]
        first, _ = pool.dispatch(snap, spec)
        second, _ = pool.dispatch(snap, spec)
        assert_results_equal(second[0], first[0], "replay")

    def test_mixed_wave_epoch_advance_retires_segments(self, rng):
        with ProcessPool(2, min_shard=64) as p:
            idx = make_index(rng, seed=9)
            snap1 = idx.fork()
            pts = random_points(rng, 200)
            p.dispatch(snap1, [(Predicate.CONTAINS_POINT, np.ascontiguousarray(pts, dtype=idx.dtype), None)])
            fork = idx.fork()
            fork.insert(random_boxes(rng, 20))
            snap2 = fork.fork()
            p.dispatch(snap2, [(Predicate.CONTAINS_POINT, np.ascontiguousarray(pts, dtype=idx.dtype), None)])
            # The superseded epoch is unlinked once its wave drained.
            assert p.live_epochs == [snap2.epoch]
            assert len(p.created_segment_names) == 2
            still = leaked(p.created_segment_names)
            assert still == [p.created_segment_names[-1]]
        assert leaked(p.created_segment_names) == []


class TestLargeWaves:
    def test_wave_larger_than_pipe_buffers_completes(self):
        """Shard payloads and replies far larger than a pipe buffer: the
        wave must neither deadlock (parent blocked sending a task while
        the worker is blocked sending its reply) nor leak its segment."""
        rng = np.random.default_rng(3)
        lo = rng.random((20_000, 2)) * 100.0
        data = Boxes(lo, lo + rng.random((20_000, 2)) * 3.0 + 0.05, dtype=np.float32)
        snap = RTSIndex(data, dtype=np.float32, seed=1).fork()
        specs = [
            (Predicate.CONTAINS_POINT,
             (rng.random((10_000, 2)) * 104.0).astype(np.float32), None)
            for _ in range(8)
        ]
        p = ProcessPool(2)
        out = {}
        wave = threading.Thread(
            target=lambda: out.update(results=p.dispatch(snap, specs)[0]),
            daemon=True,
        )
        wave.start()
        wave.join(timeout=60.0)
        if wave.is_alive():
            # Deadlocked: kill the workers so the stuck send fails and
            # close() can reclaim the segment.
            for w in p._workers:
                w.process.kill()
            wave.join(timeout=10.0)
        p.close()
        assert "results" in out, "wave dispatch deadlocked"
        for i, (pred, payload, _) in enumerate(specs):
            want = snap.query(pred, payload, planner="off")
            assert_results_equal(out["results"][i], want, f"batch {i}")
        assert leaked(p.created_segment_names) == []


class TestFaults:
    def test_killed_worker_resubmits_and_completes(self, rng):
        """Kill a worker mid-service: the router respawns the slot,
        resubmits its shards, and the wave completes with the identical
        answer — no torn epoch, no lost batch."""
        with ProcessPool(2, min_shard=64) as p:
            snap = make_index(rng, seed=13).fork()
            pts = random_points(rng, 300)
            spec = [(Predicate.CONTAINS_POINT, np.ascontiguousarray(pts, dtype=snap.dtype), None)]
            want, _ = p.dispatch(snap, spec)
            for w in p._workers:
                w.process.terminate()
                w.process.join(timeout=5.0)
            got, _ = p.dispatch(snap, spec)
            assert_results_equal(got[0], want[0], "after worker kill")
        assert leaked(p.created_segment_names) == []

    def test_worker_exception_fails_only_that_batch(self, rng):
        with ProcessPool(2, min_shard=64) as p:
            snap = make_index(rng, seed=21).fork()
            pts = random_points(rng, 200)
            good = (Predicate.CONTAINS_POINT, np.ascontiguousarray(pts, dtype=snap.dtype), None)
            # 3-D points against a 2-D index blow up inside the worker
            # kernel; the error must come back as WorkerFailed on this
            # batch while the good batch still completes.
            bad_pts = np.zeros((300, 3))
            bad = (Predicate.CONTAINS_POINT, bad_pts, None)
            want = snap.query(good[0], good[1], planner="off")
            results, _ = p.dispatch(snap, [good, bad])
            assert_results_equal(results[0], want, "good batch")
            assert isinstance(results[1], WorkerFailed)

    def test_closed_pool_rejects_dispatch(self, rng):
        p = ProcessPool(1)
        p.close()
        snap = make_index(rng, n=50).fork()
        with pytest.raises(RuntimeError):
            p.dispatch(snap, [])
        p.close()  # idempotent


class TestRouting:
    def test_ring_is_deterministic_and_balanced(self):
        ring = HashRing(4)
        keys = [f"digest{i}:fwd:{j}" for i in range(40) for j in range(4)]
        slots = [ring.slot_for(k) for k in keys]
        assert slots == [ring.slot_for(k) for k in keys]
        counts = np.bincount(slots, minlength=4)
        assert (counts > 0).all(), counts
