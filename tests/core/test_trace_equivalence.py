"""Tracing must be result-invariant.

With the tracer enabled, pairs, per-ray traversal counters, and
simulated times must be bit-identical to a traced-off run — serial and
parallel, 2-D and 3-D, for all three predicates, on a churn index with a
live delta batch, and on a planned batch answered by the LBVH. The
tracer only *observes* counters that are recorded anyway; these tests
pin that guarantee, plus the shape of the span tree it produces.
"""

import numpy as np
import pytest

from repro.churn import ChurnIndex
from repro.core.index import Predicate, RTSIndex
from repro.geometry.boxes import Boxes
from repro.obs import NULL_TRACER, Tracer

N_DATA = 2_000
#: Enough queries that parallel runs clear the 1024-per-shard floor.
N_QUERIES = 2_400

STATS_KEYS = ("stats_obj", "forward_stats_obj", "backward_stats_obj")


def make_index(ndim: int, tracer=None, parallel: bool = False, seed: int = 5) -> RTSIndex:
    rng = np.random.default_rng(100 + ndim)
    lo = rng.random((N_DATA, ndim)) * 100
    data = Boxes(lo, lo + rng.random((N_DATA, ndim)) * 4, dtype=np.float64)
    kwargs = {"parallel": True, "n_workers": 4} if parallel else {}
    return RTSIndex(
        data, ndim=ndim, dtype=np.float64, seed=seed, tracer=tracer, **kwargs
    )


def make_churn_index(tracer=None) -> ChurnIndex:
    """A 2-D churn index over the same seed data, after an insert (a
    live delta batch), a delete (tombstones) and update-moves."""
    rng = np.random.default_rng(300)
    lo = rng.random((N_DATA, 2)) * 100
    data = Boxes(lo, lo + rng.random((N_DATA, 2)) * 4, dtype=np.float64)
    ix = ChurnIndex(data, dtype=np.float64, seed=5, tracer=tracer)
    lo = rng.random((300, 2)) * 100
    ix.insert(Boxes(lo, lo + rng.random((300, 2)) * 4, dtype=np.float64))
    ix.delete(np.arange(0, N_DATA, 9))
    moved = np.arange(4, N_DATA, 13)
    lo = rng.random((len(moved), 2)) * 100
    ix.update(moved, Boxes(lo, lo + rng.random((len(moved), 2)) * 4, dtype=np.float64))
    assert ix.n_delta_batches > 0
    return ix


def queries_for(predicate: Predicate, ndim: int):
    rng = np.random.default_rng(200 + ndim)
    if predicate is Predicate.CONTAINS_POINT:
        return rng.random((N_QUERIES, ndim)) * 104
    lo = rng.random((N_QUERIES, ndim)) * 100
    extent = 0.5 if predicate is Predicate.RANGE_CONTAINS else 3.0
    return Boxes(lo, lo + rng.random((N_QUERIES, ndim)) * extent, dtype=np.float64)


def assert_identical_results(plain, traced):
    """Bit-identical pairs, per-ray counters, and simulated times."""
    assert np.array_equal(plain.rect_ids, traced.rect_ids)
    assert np.array_equal(plain.query_ids, traced.query_ids)
    assert plain.phases == traced.phases
    assert plain.sim_time == traced.sim_time
    for key in STATS_KEYS:
        s, t = plain.meta.get(key), traced.meta.get(key)
        assert (s is None) == (t is None), key
        if s is not None:
            assert np.array_equal(s.nodes_visited, t.nodes_visited), key
            assert np.array_equal(s.is_invocations, t.is_invocations), key
            assert np.array_equal(s.results_emitted, t.results_emitted), key


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
@pytest.mark.parametrize(
    "predicate",
    [Predicate.CONTAINS_POINT, Predicate.RANGE_CONTAINS, Predicate.RANGE_INTERSECTS],
)
class TestTraceInvariance:
    def test_traced_run_is_bit_identical(self, predicate, parallel, ndim):
        q = queries_for(predicate, ndim)
        plain = make_index(ndim, parallel=parallel).query(predicate, q)
        tracer = Tracer()
        traced = make_index(ndim, tracer=tracer, parallel=parallel).query(predicate, q)
        assert len(plain) > 0
        if parallel:  # the parallel leg must actually shard, or it's vacuous
            assert traced.meta["n_shards"] > 1
        assert_identical_results(plain, traced)
        # The traced run actually recorded a span tree.
        root = tracer.find("query")
        assert root is not None
        assert root.attrs["predicate"] == predicate.value
        assert root.attrs["n_pairs"] == len(traced)
        assert root.sim_time == traced.sim_time
        assert traced.trace is root


@pytest.mark.parametrize(
    "predicate",
    [Predicate.CONTAINS_POINT, Predicate.RANGE_CONTAINS, Predicate.RANGE_INTERSECTS],
)
def test_traced_churn_run_is_bit_identical(predicate):
    q = queries_for(predicate, 2)
    plain = make_churn_index().query(predicate, q)
    tracer = Tracer()
    traced = make_churn_index(tracer).query(predicate, q)
    assert len(plain) > 0
    assert_identical_results(plain, traced)
    root = tracer.find("query")
    assert root.attrs["n_pairs"] == len(traced)
    assert root.sim_time == traced.sim_time


@pytest.mark.parametrize("churned", [False, True], ids=["plain", "churn"])
def test_traced_lbvh_batch_is_bit_identical(churned):
    """A planned intersects batch answered by the LBVH: pairs and sim
    time match the untraced run, and the query span names the backend."""

    def build(tracer=None):
        return make_churn_index(tracer) if churned else make_index(2, tracer=tracer)

    q = queries_for(Predicate.RANGE_INTERSECTS, 2)
    plain = build().query_intersects(q, planner="auto")
    tracer = Tracer()
    traced = build(tracer).query_intersects(q, planner="auto")
    assert plain.meta["plan"]["backend"] == traced.meta["plan"]["backend"] == "lbvh"
    assert len(plain) > 0
    assert_identical_results(plain, traced)
    root = tracer.find("query")
    assert root.attrs["backend"] == "lbvh"
    assert root.sim_time == traced.sim_time
    assert tracer.find("plan.decide").attrs["backend"] == "lbvh"


class TestSpanTreeShape:
    def test_point_query_span_hierarchy(self):
        tracer = Tracer()
        idx = make_index(2, tracer=tracer)
        idx.query_points(queries_for(Predicate.CONTAINS_POINT, 2))
        root = tracer.find("query")
        cast = root.find("point.cast")
        assert cast is not None
        assert cast.sim_time is not None
        assert cast.counters["nodes_visited"] > 0
        shard = cast.find("shard")
        assert shard is not None and shard.attrs["shard"] == 0
        launch = shard.find("ias.traverse")
        assert launch is not None and launch.find("bvh.traverse") is None
        assert launch.counters["nodes_visited"] == cast.counters["nodes_visited"]

    def test_parallel_shards_attach_to_cast_span(self):
        tracer = Tracer()
        idx = make_index(2, tracer=tracer, parallel=True)
        # Enough queries to clear the 1024-per-shard serial floor.
        pts = np.random.default_rng(7).random((4000, 2)) * 104
        idx.query_points(pts)
        cast = tracer.find("point.cast")
        shards = [s for s in cast.children if s.name == "shard"]
        assert len(shards) == cast.attrs["n_shards"] > 1
        assert sorted(s.attrs["shard"] for s in shards) == list(range(len(shards)))
        # Shard-subtree traversal counters sum to the cast's logical
        # launch (results_emitted is recorded by the IS filter *after*
        # the traversal span, so only traversal-side counters roll up).
        for key in ("nodes_visited", "is_invocations"):
            assert sum(s.total_counter(key) for s in shards) == cast.counters[key]

    def test_intersects_phases_are_named_spans(self):
        tracer = Tracer()
        idx = make_index(2, tracer=tracer)
        idx.query_intersects(queries_for(Predicate.RANGE_INTERSECTS, 2))
        root = tracer.find("query")
        for name in (
            "intersects.k_prediction",
            "intersects.bvh_build",
            "intersects.forward_cast",
            "intersects.backward_cast",
        ):
            assert root.find(name) is not None, name
        assert root.find("intersects.flat_ias_build") is None  # 2-D: no flattening
        k_sp = root.find("intersects.k_prediction")
        assert k_sp.attrs["k"] >= 1 and k_sp.sim_time is not None

    def test_3d_intersects_traces_flat_ias_build(self):
        tracer = Tracer()
        idx = make_index(3, tracer=tracer)
        idx.query_intersects(queries_for(Predicate.RANGE_INTERSECTS, 3))
        flat = tracer.find("intersects.flat_ias_build")
        assert flat is not None
        assert flat.attrs["cached"] is False
        idx.query_intersects(queries_for(Predicate.RANGE_INTERSECTS, 3))
        flats = [s for s in tracer.spans() if s.name == "intersects.flat_ias_build"]
        assert len(flats) == 2 and flats[1].attrs["cached"] is True

    def test_contains_cast_span(self):
        tracer = Tracer()
        make_index(2, tracer=tracer).query_contains(
            queries_for(Predicate.RANGE_CONTAINS, 2)
        )
        cast = tracer.find("contains.cast")
        assert cast is not None and cast.counters["nodes_visited"] > 0

    def test_untraced_index_records_nothing(self):
        idx = make_index(2)
        assert idx.tracer is NULL_TRACER
        result = idx.query_points(queries_for(Predicate.CONTAINS_POINT, 2))
        assert result.trace is None
        assert NULL_TRACER.to_dict() == {}
