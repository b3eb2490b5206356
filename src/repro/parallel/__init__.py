"""Parallel query execution substrate.

The paper's CPU baselines distribute read-only queries evenly across all
cores (§6.1). The *simulated* times already model that division of work;
this package provides the real thing for wall-clock speedups on
multicore hosts: a chunked executor that shards a query batch and runs
shards concurrently on a shared thread pool; the launch reduction in
:mod:`repro.core.queries.launch` merges the shard parts. :class:`~repro.core.index.RTSIndex` plumbs
it through every predicate via the ``parallel`` / ``n_workers`` knobs.
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
