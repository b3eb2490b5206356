"""Adaptive execution planning for query batches.

``repro.plan`` prices every candidate way of answering a query batch —
the simulated RT-core pipeline (with the paper's predicted-k multicast
economics) against the in-tree CPU R-tree and software-GPU LBVH
baselines — and routes the batch to the cheapest, self-calibrating its
estimates from observed simulated times via an EWMA feedback loop keyed
by workload signature. The planner picks only the backend; how an RT
batch is sharded is fixed by the index (its one executor and the static
:func:`~repro.parallel.executor.plan_shards` rule).

Entry points:

- ``RTSIndex.query(..., planner="auto")`` / ``RTSIndex(planner="auto")``
  — plan per batch on an index;
- :class:`~repro.serve.service.ServiceConfig` ``planner="auto"``
  (the default) — the serve scheduler plans every executed batch;
- :mod:`repro.plan.bench` — the planned-vs-static matrix, the ``plan``
  section of ``python -m repro.bench.gate`` (baseline ``BENCH_gate.json``).

Planning never changes answers: all backends implement identical
predicate semantics and sharding is result-invariant, so a planned
query returns bit-identical pairs (and traversal counters, when it
stays on the RT pipeline) to the equivalent fixed-config run.
"""

from repro.plan.cost import BASELINE_BACKENDS, LBVH, RT, RTREE, BackendEstimate
from repro.plan.planner import (
    BUILD_AMORTIZATION,
    EWMA_ALPHA,
    HYSTERESIS,
    QueryPlan,
    QueryPlanner,
)
from repro.plan.signature import WorkloadSignature, log2_bucket

__all__ = [
    "BASELINE_BACKENDS",
    "BUILD_AMORTIZATION",
    "EWMA_ALPHA",
    "HYSTERESIS",
    "LBVH",
    "RT",
    "RTREE",
    "BackendEstimate",
    "QueryPlan",
    "QueryPlanner",
    "WorkloadSignature",
    "log2_bucket",
]
