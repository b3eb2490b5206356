"""Property-based serving equivalence: batching must be transparent.

For randomized workloads — including empty payloads and mixed request
sizes — the coalescing scheduler (``max_batch=16``) must return exactly
the pairs an unbatched service (``max_batch=1``) returns for every
request, which must in turn equal the direct index answers. Both
services run the default planner, so this also exercises planned
batches end to end.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.index import Predicate, RTSIndex
from repro.serve import ServiceConfig, SpatialQueryService

from tests.conftest import assert_pairs_equal, random_boxes, random_points


def _run_service(data, predicate, payloads, max_batch):
    svc = SpatialQueryService(
        RTSIndex(data, dtype=np.float64, seed=3),
        ServiceConfig(max_batch=max_batch, cache_size=0),
        autostart=False,
    )
    with svc:
        futures = [svc.submit(predicate, p) for p in payloads]
        svc.start()
        return [f.result(timeout=30) for f in futures]


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_batched_equals_unbatched_points(sizes, seed):
    rng = np.random.default_rng(seed)
    data = random_boxes(rng, 250)
    payloads = [random_points(rng, n) for n in sizes]
    batched = _run_service(data, Predicate.CONTAINS_POINT, payloads, max_batch=16)
    unbatched = _run_service(data, Predicate.CONTAINS_POINT, payloads, max_batch=1)
    with RTSIndex(data, dtype=np.float64, seed=3) as direct:
        for i, (b, u, p) in enumerate(zip(batched, unbatched, payloads)):
            assert_pairs_equal(b.pairs(), u.pairs(), f"req {i} batched vs unbatched")
            want = direct.query(
                Predicate.CONTAINS_POINT,
                np.ascontiguousarray(p, dtype=np.float64),
                planner="off",
            )
            assert_pairs_equal(b.pairs(), want.pairs(), f"req {i} vs direct")
            assert len(b) == 0 if len(p) == 0 else True


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None)
def test_batched_equals_unbatched_intersects(sizes, seed):
    """Range-Intersects adds the k-prediction RNG to the picture: the
    per-launch k may differ between batched and unbatched execution, but
    multicast is load balancing only — pairs must be identical."""
    rng = np.random.default_rng(seed)
    data = random_boxes(rng, 250)
    payloads = [random_boxes(rng, n, max_extent=2.0) for n in sizes]
    batched = _run_service(data, Predicate.RANGE_INTERSECTS, payloads, max_batch=16)
    unbatched = _run_service(data, Predicate.RANGE_INTERSECTS, payloads, max_batch=1)
    for i, (b, u) in enumerate(zip(batched, unbatched)):
        assert_pairs_equal(b.pairs(), u.pairs(), f"req {i} batched vs unbatched")
        assert b.meta["cache_hit"] is False and u.meta["cache_hit"] is False
