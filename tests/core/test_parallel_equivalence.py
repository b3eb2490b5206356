"""Parallel execution must be invisible in everything but wall-clock.

Every predicate, in 2-D and 3-D, with and without Range-Intersects
multicast, must return bit-identical ``(rect_ids, query_ids)`` pairs,
bit-identical per-ray traversal counters, and bit-identical simulated
times whether the launch runs serially or sharded across a thread pool.
The guarantee holds because traversal counters are per-ray independent:
per-shard :class:`TraversalStats` scatter-merge into the logical
launch's counters, which are priced exactly once.
"""

import numpy as np
import pytest

from repro.core.handlers import CollectingHandler
from repro.core.index import RTSIndex
from repro.core.queries import contains, intersects
from repro.core.result import QueryResult
from repro.geometry.boxes import Boxes
from repro.parallel import ChunkedExecutor
from repro.parallel import executor as executor_mod


def run_point_query(*args, **kw):
    """The point query: the Contains kernel over a point array."""
    return QueryResult(*contains.run_contains_query(*args, **kw))


def run_contains_query(*args, **kw):
    return QueryResult(*contains.run_contains_query(*args, **kw))


def run_intersects_query(*args, **kw):
    return QueryResult(*intersects.run_intersects_query(*args, **kw))

N_DATA = 2_500
N_QUERIES = 1_400

STATS_KEYS = ("stats_obj", "forward_stats_obj", "backward_stats_obj")


class RecordingExecutor(ChunkedExecutor):
    """A :class:`ChunkedExecutor` that records each launch's shard count."""

    def __init__(self, n_workers: int):
        super().__init__(n_workers)
        self.plans = []

    def plan(self, n):
        shards = super().plan(n)
        self.plans.append(len(shards))
        return shards


@pytest.fixture(params=["per-worker", "over-cap"])
def sharded_executor(request, monkeypatch):
    """Aggressively small shards so even test-sized batches fan out:
    one shard per worker, or ("over-cap") a row cap far below the batch,
    so every launch queues more shards than the pool has workers."""
    monkeypatch.setattr(executor_mod, "MIN_SHARD_SIZE", 64)
    over_cap = request.param == "over-cap"
    if over_cap:
        monkeypatch.setattr(executor_mod, "MAX_SHARD_ROWS", 128)
    with RecordingExecutor(2 if over_cap else 4) as ex:
        yield ex
    if over_cap:
        assert ex.plans and all(n > ex.n_workers for n in ex.plans), ex.plans


def make_index(ndim: int, seed: int = 5) -> RTSIndex:
    rng = np.random.default_rng(100 + ndim)
    lo = rng.random((N_DATA, ndim)) * 100
    data = Boxes(lo, lo + rng.random((N_DATA, ndim)) * 4, dtype=np.float64)
    return RTSIndex(data, ndim=ndim, dtype=np.float64, seed=seed)


def query_points(ndim: int) -> np.ndarray:
    rng = np.random.default_rng(200 + ndim)
    return rng.random((N_QUERIES, ndim)) * 104


def query_boxes(ndim: int, extent: float = 3.0) -> Boxes:
    rng = np.random.default_rng(300 + ndim)
    lo = rng.random((N_QUERIES, ndim)) * 100
    return Boxes(lo, lo + rng.random((N_QUERIES, ndim)) * extent, dtype=np.float64)


def assert_equivalent(serial, parallel):
    """Pairs, per-ray counters, and simulated times must be identical."""
    assert np.array_equal(serial.rect_ids, parallel.rect_ids)
    assert np.array_equal(serial.query_ids, parallel.query_ids)
    assert serial.phases == parallel.phases
    assert serial.sim_time == parallel.sim_time
    for key in ("stats", "forward_stats", "backward_stats"):
        assert serial.meta.get(key) == parallel.meta.get(key), key
    for key in STATS_KEYS:
        s, p = serial.meta.get(key), parallel.meta.get(key)
        assert (s is None) == (p is None), key
        if s is not None:
            assert np.array_equal(s.nodes_visited, p.nodes_visited), key
            assert np.array_equal(s.is_invocations, p.is_invocations), key
            assert np.array_equal(s.results_emitted, p.results_emitted), key
    # The parallel run must actually have sharded, or the test is vacuous
    # (serial counts one shard per casting launch).
    assert parallel.meta["n_shards"] > serial.meta["n_shards"]


@pytest.mark.parametrize("ndim", [2, 3])
class TestPredicateEquivalence:
    def test_point_query(self, ndim, sharded_executor):
        pts = query_points(ndim)
        serial = run_point_query(make_index(ndim), pts)
        parallel = run_point_query(make_index(ndim), pts, executor=sharded_executor)
        assert len(serial) > 0
        assert_equivalent(serial, parallel)

    def test_contains_query(self, ndim, sharded_executor):
        q = query_boxes(ndim, extent=0.5)
        serial = run_contains_query(make_index(ndim), q)
        parallel = run_contains_query(make_index(ndim), q, executor=sharded_executor)
        assert len(serial) > 0
        assert_equivalent(serial, parallel)

    def test_intersects_query_multicast(self, ndim, sharded_executor):
        # Forced k > 1 exercises the backward multicast pass; the S-side
        # BVH build and k stay global, only the casting launches shard.
        q = query_boxes(ndim)
        serial = run_intersects_query(make_index(ndim), q, k=4)
        parallel = run_intersects_query(
            make_index(ndim), q, k=4, executor=sharded_executor
        )
        assert len(serial) > 0
        assert serial.meta["k"] == parallel.meta["k"] == 4
        assert_equivalent(serial, parallel)

    def test_intersects_query_no_multicast(self, ndim, sharded_executor):
        q = query_boxes(ndim)
        serial = run_intersects_query(make_index(ndim), q, k=1)
        parallel = run_intersects_query(
            make_index(ndim), q, k=1, executor=sharded_executor
        )
        assert len(serial) > 0
        assert serial.meta["k"] == parallel.meta["k"] == 1
        assert_equivalent(serial, parallel)

    def test_intersects_query_predicted_k(self, ndim, sharded_executor):
        # k prediction consumes index.rng, so two same-seed indexes keep
        # serial and parallel RNG streams aligned.
        q = query_boxes(ndim)
        serial = run_intersects_query(make_index(ndim, seed=9), q)
        parallel = run_intersects_query(
            make_index(ndim, seed=9), q, executor=sharded_executor
        )
        assert serial.meta["k"] == parallel.meta["k"]
        assert_equivalent(serial, parallel)


class TestIndexLevelParallel:
    """The public ``RTSIndex`` knobs route through the same machinery."""

    def test_constructor_knob(self):
        pts = np.random.default_rng(7).random((3000, 2)) * 104
        idx_s = make_index(2)
        idx_p = RTSIndex(
            Boxes(idx_s._mins.copy(), idx_s._maxs.copy()),
            dtype=np.float64,
            seed=5,
            parallel=True,
            n_workers=4,
        )
        a = idx_s.query_points(pts)
        b = idx_p.query_points(pts)
        assert np.array_equal(a.rect_ids, b.rect_ids)
        assert np.array_equal(a.query_ids, b.query_ids)
        assert a.phases == b.phases
        assert b.meta["n_shards"] > 1  # 3000 queries clear the serial floor

    def test_worker_counts_agree(self):
        """The executor is fixed at build time: a serial index and
        parallel indexes of different widths answer identically."""
        pts = np.random.default_rng(7).random((3000, 2)) * 104
        data = Boxes(make_index(2)._mins.copy(), make_index(2)._maxs.copy())
        runs = {}
        for parallel, n_workers in ((False, 4), (True, 2), (True, 4)):
            with RTSIndex(
                data, dtype=np.float64, seed=5, parallel=parallel, n_workers=n_workers
            ) as idx:
                runs[parallel, n_workers] = idx.query_points(pts)
        serial = runs[False, 4]
        assert serial.meta["n_shards"] == 1
        for key in ((True, 2), (True, 4)):
            assert runs[key].meta["n_shards"] > 1
            assert np.array_equal(serial.rect_ids, runs[key].rect_ids)
            assert np.array_equal(serial.query_ids, runs[key].query_ids)
            assert serial.phases == runs[key].phases

    def test_small_batches_stay_serial(self):
        idx = RTSIndex(
            Boxes(make_index(2)._mins.copy(), make_index(2)._maxs.copy()),
            dtype=np.float64,
            seed=5,
            parallel=True,
            n_workers=8,
        )
        pts = np.random.default_rng(7).random((50, 2)) * 104
        assert idx.query_points(pts).meta["n_shards"] == 1

    def test_handler_called_once_with_merged_arrays(self, sharded_executor):
        calls = []

        class CountingHandler(CollectingHandler):
            def on_results(self, rect_ids, query_ids):
                calls.append(len(rect_ids))
                super().on_results(rect_ids, query_ids)

        handler = CountingHandler()
        pts = query_points(2)
        run_point_query(make_index(2), pts, handler=handler, executor=sharded_executor)
        assert len(calls) == 1  # one logical launch, not one call per shard
        ref = run_point_query(make_index(2), pts)
        rects, qids = handler.pairs()
        assert np.array_equal(rects, ref.rect_ids)
        assert np.array_equal(qids, ref.query_ids)
