"""Planner equivalence: planning must never change answers.

For a grid of workloads, a ``planner="auto"`` query must return
bit-identical pairs to the equivalent fixed-config run — and when the
plan stays on the RT pipeline, bit-identical phases and traversal
counters too (sharding is invariant by the parallel-equivalence
contract). When the plan routes to the LBVH, pairs must still match the
RT answer exactly (both backends implement the same closed-box predicate
semantics).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn import ChurnIndex
from repro.core.index import Predicate, RTSIndex
from repro.parallel.executor import plan_shards

from tests.conftest import assert_pairs_equal, random_boxes, random_points

GRID = [
    # (predicate, n_rects, n_queries, backend, churned) — points and
    # contains stay on the RT pipeline, intersects route to the LBVH;
    # every cell must be answer-invariant. The churned cell runs on a
    # ChurnIndex, whose public-id remap the LBVH route must apply too.
    (Predicate.CONTAINS_POINT, 600, 8, "rt", False),
    (Predicate.CONTAINS_POINT, 5000, 1500, "rt", False),
    (Predicate.RANGE_CONTAINS, 500, 8, "rt", False),
    (Predicate.RANGE_CONTAINS, 5000, 1200, "rt", False),
    (Predicate.RANGE_INTERSECTS, 700, 8, "lbvh", False),
    (Predicate.RANGE_INTERSECTS, 5000, 1200, "lbvh", False),
    (Predicate.RANGE_INTERSECTS, 700, 8, "lbvh", True),
]


def _index(data, churned: bool) -> RTSIndex:
    """A plain index, or a churn index after an insert, a delete and
    update-moves (its public ids are non-monotonic over internal slots).
    The mutations are seeded, so two calls build identical indexes."""
    if not churned:
        return RTSIndex(data, dtype=np.float64, seed=11)
    rng = np.random.default_rng(3)
    ix = ChurnIndex(data, dtype=np.float64, seed=11)
    ix.insert(random_boxes(rng, 40))
    ix.delete(np.arange(0, len(data), 7))
    moved = np.arange(3, len(data), 11)
    ix.update(moved, random_boxes(rng, len(moved)))
    return ix


def _payload(rng, predicate, n):
    if predicate is Predicate.CONTAINS_POINT:
        return random_points(rng, n)
    return random_boxes(rng, n, max_extent=2.0)


def _query_counters(index):
    return {
        k: v for k, v in index.metrics.as_dict()["counters"].items() if k.startswith("query.")
    }


class TestPlannedEqualsFixed:
    @pytest.mark.parametrize("predicate,n_rects,n_queries,backend,churned", GRID)
    def test_bit_identical_pairs_and_counters(
        self, rng, predicate, n_rects, n_queries, backend, churned
    ):
        data = random_boxes(rng, n_rects)
        payload = _payload(rng, predicate, n_queries)

        with _index(data, churned) as fixed:
            want = fixed.query(predicate, payload, planner="off")
        with _index(data, churned) as planned:
            assert (planned._remap is not None) == churned
            got = planned.query(predicate, payload, planner="auto")

        assert got.meta["plan"]["backend"] == backend
        assert len(want) > 0
        # Bit-identical arrays: canonical order survives the id remap.
        assert np.array_equal(got.rect_ids, want.rect_ids)
        assert np.array_equal(got.query_ids, want.query_ids)

        if backend == "rt":
            # Same pipeline → identical phases, sim time and counters.
            assert got.phases == want.phases
            with _index(data, churned) as fixed2:
                fixed2.query(predicate, payload, planner="off")
                assert _query_counters(planned) == _query_counters(fixed2)
        else:
            # LBVH answer: exact pairs, its own (exact) pricing.
            assert set(got.phases) == {"cast"}
            assert got.meta["backend"] == backend

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_planned_parallel_equals_fixed_serial(self, rng, n_workers):
        """A planned run on a parallel index is bit-identical to the
        fixed serial run — counters included."""
        data = random_boxes(rng, 4000)
        payload = random_points(rng, 3000)
        with RTSIndex(data, dtype=np.float64, seed=2) as fixed:
            want = fixed.query(Predicate.CONTAINS_POINT, payload, planner="off")
        with RTSIndex(
            data, dtype=np.float64, seed=2, parallel=True, n_workers=n_workers
        ) as planned:
            got = planned.query(Predicate.CONTAINS_POINT, payload, planner="auto")
            assert got.meta["plan"]["backend"] == "rt"
        assert_pairs_equal(got.pairs(), want.pairs(), "planned parallel")
        assert got.phases == want.phases

    @pytest.mark.parametrize(
        "parallel,n_workers,want_shards",
        [(False, None, 1), (True, 2, len(plan_shards(10_000, 2)))],
    )
    def test_planned_rt_batch_shards_like_unplanned(
        self, rng, parallel, n_workers, want_shards
    ):
        """The planner picks only the backend: a planned RT batch is
        sharded by the index's executor exactly like the unplanned run
        on the same index."""
        data = random_boxes(rng, 4000)
        payload = random_points(rng, 10_000)
        with RTSIndex(
            data, dtype=np.float64, seed=2, parallel=parallel, n_workers=n_workers
        ) as ix:
            fixed = ix.query(Predicate.CONTAINS_POINT, payload, planner="off")
            planned = ix.query(Predicate.CONTAINS_POINT, payload, planner="auto")
        assert planned.meta["plan"]["backend"] == "rt"
        assert fixed.meta["n_shards"] == want_shards
        assert planned.meta["n_shards"] == want_shards

    def test_pinned_k_forces_rt(self, rng):
        """Pinning k is an explicit request for the RT pipeline's knob:
        even on a workload the planner would route to the LBVH, the plan
        is forced to rt and honors k exactly."""
        data = random_boxes(rng, 700)
        payload = random_boxes(rng, 8, max_extent=2.0)
        with RTSIndex(data, dtype=np.float64, seed=5) as fixed:
            want = fixed.query(Predicate.RANGE_INTERSECTS, payload, k=4, planner="off")
        with RTSIndex(data, dtype=np.float64, seed=5) as planned:
            # The same workload without k routes to the LBVH...
            free = planned.query(Predicate.RANGE_INTERSECTS, payload, planner="auto")
            assert free.meta["plan"]["backend"] == "lbvh"
            # ...but pinning k forces rt.
            got = planned.query(Predicate.RANGE_INTERSECTS, payload, k=4, planner="auto")
        plan = got.meta["plan"]
        assert plan["backend"] == "rt"
        assert plan["forced"] == "k-pinned"
        assert got.meta["k"] == 4
        assert_pairs_equal(got.pairs(), want.pairs(), "pinned k")
        assert got.phases == want.phases

    def test_empty_batch_forced_rt(self, rng):
        data = random_boxes(rng, 600)
        with RTSIndex(data, dtype=np.float64, seed=5) as planned:
            got = planned.query(Predicate.CONTAINS_POINT, np.empty((0, 2)), planner="auto")
        assert len(got) == 0
        assert got.meta["plan"]["backend"] == "rt"
        assert got.meta["plan"]["forced"] == "empty-batch"

    def test_planned_sequence_is_deterministic(self, rng):
        """The same batch sequence on two fresh indexes makes the same
        decisions and reports the same simulated times."""
        data = random_boxes(rng, 800)
        batches = [
            _payload(rng, Predicate.RANGE_INTERSECTS, n) for n in (8, 8, 64, 8, 256)
        ]

        def run():
            decisions, sims = [], []
            with RTSIndex(data, dtype=np.float64, seed=7) as ix:
                for b in batches:
                    r = ix.query(Predicate.RANGE_INTERSECTS, b, planner="auto")
                    decisions.append(r.meta["plan"]["backend"])
                    sims.append(r.sim_time)
            return decisions, sims

        assert run() == run()

    def test_mutation_invalidates_baseline_cache(self, rng):
        """After an insert, a planned LBVH answer reflects the new
        rectangles (the epoch-keyed structure cache rebuilt)."""
        data = random_boxes(rng, 600)
        extra = random_boxes(rng, 50)
        payload = random_boxes(rng, 8, max_extent=2.0)
        with RTSIndex(data, dtype=np.float64, seed=3) as planned:
            before = planned.query(Predicate.RANGE_INTERSECTS, payload, planner="auto")
            assert before.meta["plan"]["backend"] == "lbvh"
            planned.insert(extra)
            after = planned.query(Predicate.RANGE_INTERSECTS, payload, planner="auto")
            assert after.meta["plan"]["backend"] == "lbvh"
            assert after.meta["backend_built_now"] is True
        with RTSIndex(data, dtype=np.float64, seed=3) as fixed:
            fixed.insert(extra)
            want = fixed.query(Predicate.RANGE_INTERSECTS, payload, planner="off")
        assert_pairs_equal(after.pairs(), want.pairs(), "post-insert")

    def test_handler_sees_identical_pairs(self, rng):
        from repro.core.handlers import CollectingHandler

        data = random_boxes(rng, 600)
        payload = random_boxes(rng, 8, max_extent=2.0)
        planned_h, fixed_h = CollectingHandler(), CollectingHandler()
        with RTSIndex(data, dtype=np.float64, seed=3) as planned:
            got = planned.query(
                Predicate.RANGE_INTERSECTS, payload, handler=planned_h, planner="auto"
            )
            assert got.meta["plan"]["backend"] == "lbvh"
        with RTSIndex(data, dtype=np.float64, seed=3) as fixed:
            fixed.query(Predicate.RANGE_INTERSECTS, payload, handler=fixed_h, planner="off")
        assert len(fixed_h.pairs()[0]) > 0
        assert_pairs_equal(planned_h.pairs(), fixed_h.pairs(), "handler pairs")

    def test_plan_decisions_counted_and_traced(self, rng):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        data = random_boxes(rng, 600)
        with RTSIndex(data, dtype=np.float64, seed=3, tracer=tracer) as planned:
            planned.query(Predicate.CONTAINS_POINT, random_points(rng, 8), planner="auto")
            planned.query(Predicate.CONTAINS_POINT, random_points(rng, 8), planner="auto")
            assert planned.metrics.counter("plan.decisions") == 2
        spans = [s for s in tracer.spans() if s.name == "plan.decide"]
        assert len(spans) == 2
        assert all("backend" in s.attrs for s in spans)
