"""Execution planning for query batches.

``repro.plan`` prices each of two ways of answering a query batch — the
simulated RT-core pipeline (with the paper's predicted-k multicast
economics) against the in-tree software-GPU LBVH baseline — and routes
the batch to the cheaper. Pricing is analytic and stateless: the same
batch against the same index state gets the same decision. The planner
picks only the backend; how an RT batch is sharded is fixed by the index
(its one executor and the static
:func:`~repro.parallel.executor.plan_shards` rule).

Entry points:

- ``RTSIndex.query(..., planner="auto")`` — plan one batch on an index
  (``None``, the default, and ``"off"`` run the fixed-config RT path);
- :class:`~repro.serve.service.ServiceConfig` ``planner="auto"``
  (the default) — the serve scheduler plans every executed batch;
- :mod:`repro.plan.bench` — the planned-vs-static matrix, the ``plan``
  section of ``python -m repro.bench.gate`` (baseline ``BENCH_gate.json``).

Planning never changes answers: both backends implement identical
predicate semantics and sharding is result-invariant, so a planned
query returns bit-identical pairs (and traversal counters, when it
stays on the RT pipeline) to the equivalent fixed-config run.
"""

from repro.plan.cost import LBVH, RT, BackendEstimate
from repro.plan.planner import (
    BUILD_AMORTIZATION,
    HYSTERESIS,
    QueryPlan,
    QueryPlanner,
)

__all__ = [
    "BUILD_AMORTIZATION",
    "HYSTERESIS",
    "LBVH",
    "RT",
    "BackendEstimate",
    "QueryPlan",
    "QueryPlanner",
]
