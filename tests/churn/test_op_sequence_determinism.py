"""Compaction and planning are functions of the op sequence alone.

One fixed mutation sequence replays on two churn indexes that differ
only in their reads: one reads after every op, the other after every
third. Reads must not move anything a later decision depends on, so at
every op both indexes agree on the compaction ``maybe_compact()``
performs, on ``describe()["churn"]`` and on the planner's backend for
small and large batches of each predicate.
"""

import numpy as np
import pytest

from repro.churn import ChurnIndex
from repro.core.index import Predicate
from repro.plan.planner import QueryPlanner
from tests.conftest import random_boxes, random_points

N_RECTS = 1_500
N_OPS = 24
BATCH = 120
PLAN_SIZES = (32, 512)


def op_sequence(rng):
    """Inserts, main and delta deletes, and updates in a fixed mix, in
    public ids, enough to fire the default delta-ratio trigger."""
    ops = []
    next_id = N_RECTS
    for i in range(N_OPS):
        kind = ("insert", "delete", "update", "delete-new")[i % 4]
        if kind == "insert":
            ops.append(("insert", random_boxes(rng, BATCH)))
            next_id += BATCH
        elif kind == "delete":
            ops.append(("delete", rng.choice(N_RECTS, BATCH, replace=False)))
        elif kind == "update":
            ids = rng.choice(next_id, BATCH, replace=False)
            ops.append(("update", ids, random_boxes(rng, BATCH)))
        else:
            ops.append(("delete", np.arange(next_id - BATCH // 2, next_id)))
    return ops


def apply(ix, op):
    if op[0] == "insert":
        ix.insert(op[1])
    elif op[0] == "delete":
        ix.delete(op[1])
    else:
        ix.update(op[1], op[2])


def read(ix, rng):
    ix.query_points(random_points(rng, 64))
    ix.query_contains(random_boxes(rng, 32, max_extent=2.0))
    ix.query_intersects(random_boxes(rng, 32, max_extent=4.0))


def decisions(ix):
    planner = QueryPlanner()
    return [
        planner.plan(ix, pred, n).backend
        for pred in Predicate
        for n in PLAN_SIZES
    ]


def trace(read_every: int) -> list:
    data_rng = np.random.default_rng(33)
    data = random_boxes(data_rng, N_RECTS)
    ops = op_sequence(data_rng)
    read_rng = np.random.default_rng(34)
    ix = ChurnIndex(data, dtype=np.float64, seed=5)
    steps = []
    for i, op in enumerate(ops):
        apply(ix, op)
        if i % read_every == 0:
            read(ix, read_rng)
        summary = ix.maybe_compact()
        if i % read_every == 0:
            read(ix, read_rng)
        steps.append((summary, ix.describe()["churn"], decisions(ix)))
    return steps


@pytest.fixture(scope="module")
def traces():
    return trace(read_every=1), trace(read_every=3)


def test_sequence_exercises_compaction_and_churn(traces):
    dense, _ = traces
    assert any(summary is not None for summary, _, _ in dense)
    assert any(churn["drift_factor"] > 1.0 for _, churn, _ in dense)


def _diverging_op(traces, field: int):
    dense, sparse = traces
    return next(
        (i for i, (a, b) in enumerate(zip(dense, sparse)) if a[field] != b[field]),
        None,
    )


def test_compactions_do_not_depend_on_reads(traces):
    i = _diverging_op(traces, 0)
    assert i is None, f"op {i}: maybe_compact() summaries differ"


def test_churn_description_does_not_depend_on_reads(traces):
    i = _diverging_op(traces, 1)
    assert i is None, f"op {i}: describe()['churn'] differs"


def test_decisions_do_not_depend_on_reads(traces):
    i = _diverging_op(traces, 2)
    assert i is None, f"op {i}: planner backends differ"
