"""NaN and infinite coordinates are rejected, naming the first bad row.

Non-finite bounds defeat the slab test and the diagonal casts, so before
the check these inputs returned silently wrong pairs (a NaN query
rectangle matched rectangles brute force rejects; an infinite one
matched none of the rectangles it covers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn import ChurnIndex
from repro.core.index import Predicate, RTSIndex
from repro.serve import ServiceConfig, SpatialQueryService

from tests.conftest import random_boxes

NAN, INF = np.nan, np.inf

#: Bad rows, interleaved ``[xmin, ymin, xmax, ymax]``. The last one is
#: finite in float64 but overflows to inf in the float32 index.
BAD_RECTS = [
    [NAN, 0.0, 5.0, 5.0],
    [-INF, -INF, INF, INF],
    [0.0, 0.0, INF, 5.0],
    [0.0, 0.0, 1e39, 5.0],
]
BAD_POINTS = [[NAN, 1.0], [1.0, -INF], [1e39, 1.0]]


def make_index():
    rng = np.random.default_rng(4)
    return RTSIndex(random_boxes(rng, 1000, domain=101.0), dtype=np.float32, seed=1)


def payload(predicate: Predicate, bad) -> np.ndarray:
    """Three query rows with ``bad`` at row 1."""
    if predicate is Predicate.CONTAINS_POINT:
        good = [3.0, 4.0]
    else:
        good = [1.0, 1.0, 6.0, 6.0]
    return np.array([good, bad, good], dtype=np.float64)


def cases():
    for predicate in Predicate:
        rows = BAD_POINTS if predicate is Predicate.CONTAINS_POINT else BAD_RECTS
        for bad in rows:
            yield predicate, bad


@pytest.mark.parametrize("path", ["direct", "service"])
@pytest.mark.parametrize(
    "predicate,bad", list(cases()), ids=lambda v: getattr(v, "value", str(v))
)
def test_non_finite_query_rejected(path, predicate, bad):
    index = make_index()
    q = payload(predicate, bad)
    if path == "direct":
        with pytest.raises(ValueError, match="row 1 has a non-finite"):
            index.query(predicate, q)
        return
    svc = SpatialQueryService(index, ServiceConfig(planner=None), autostart=False)
    try:
        with pytest.raises(ValueError, match="row 1 has a non-finite"):
            svc.submit(predicate, q)
        assert svc.queue_depth == 0
    finally:
        svc.close()


@pytest.mark.parametrize("bad", BAD_RECTS, ids=str)
@pytest.mark.parametrize("op", ["construct", "insert", "update", "churn-update"])
def test_non_finite_rectangles_not_indexed(op, bad):
    rects = np.array([[0.0, 0.0, 1.0, 1.0], bad], dtype=np.float64)
    with pytest.raises(ValueError, match="row 1 has a non-finite"):
        if op == "construct":
            RTSIndex(rects, dtype=np.float32)
        elif op == "insert":
            make_index().insert(rects)
        elif op == "update":
            make_index().update([0, 1], rects)
        else:
            ChurnIndex.from_index(make_index()).update([0, 1], rects)
