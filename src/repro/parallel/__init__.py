"""Parallel query execution substrate.

The paper's CPU baselines distribute read-only queries evenly across all
cores (§6.1). The *simulated* times already model that division of work;
this package provides the real thing for wall-clock speedups on
multicore hosts: a chunked executor that shards a query batch by one
static rule (:func:`plan_shards`) and runs shards concurrently on a
shared thread pool; the launch reduction in
:mod:`repro.core.queries.launch` merges the shard parts. An
:class:`~repro.core.index.RTSIndex` built with ``parallel=True`` and
``n_workers > 1`` owns one executor and every launch on it uses it.
"""

from repro.parallel.executor import (
    MIN_SHARD_SIZE,
    SHARDS_PER_WORKER,
    ChunkedExecutor,
    default_workers,
    plan_shards,
    shard_queries,
    shared_pool,
)

__all__ = [
    "ChunkedExecutor",
    "shard_queries",
    "plan_shards",
    "shared_pool",
    "default_workers",
    "MIN_SHARD_SIZE",
    "SHARDS_PER_WORKER",
]
