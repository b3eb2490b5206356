"""Chunked parallel execution of read-only query batches.

Spatial queries are embarrassingly parallel over the query set (the
paper exploits exactly this to scale CPU baselines to 128 cores). The
executor shards a batch and maps a shard kernel over the shards on a
module-level reusable thread pool — NumPy releases the GIL inside its
kernels, so threads scale. The shard parts are reduced by the caller's
launch (:func:`repro.core.queries.launch.merge_launch`), the same
reduction serial launches use.

Shard sizing is one static rule (:func:`plan_shards`): one shard per
worker, more only when a shard would pass :data:`MAX_SHARD_ROWS` rows (a
shard's cost follows its working set, not the worker count), and batches
below a minimum size stay serial. Pools are keyed by worker count and
reused across queries; constructing a :class:`ChunkedExecutor` is cheap
and never spawns threads by itself.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.lockorder import make_lock

#: Batches smaller than this are never sharded — per-shard bookkeeping
#: would outweigh any traversal overlap on such small launches.
MIN_SHARD_SIZE = 1024

#: Largest shard, in rows; wider launches split into more shards per
#: worker so each shard's traversal temporaries stay cache-sized.
MAX_SHARD_ROWS = 16_384

_pools: dict[int, ThreadPoolExecutor] = {}
_pool_refs: dict[int, int] = {}
# Rank 60 (leaf): pool bookkeeping may run under any other subsystem's
# lock but never calls back out while held. Created at import time, so
# REPRO_TSAN only covers it when set before the first import.
_pools_lock = make_lock("parallel.pools")


def shared_pool(n_workers: int) -> ThreadPoolExecutor:
    """The module-level thread pool for ``n_workers``-wide execution.

    Pools are created lazily, keyed by width, and reused for the life of
    the process, so per-query executor use never pays pool construction.
    """
    n_workers = max(1, int(n_workers))
    with _pools_lock:
        pool = _pools.get(n_workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix=f"repro-shard{n_workers}"
            )
            _pools[n_workers] = pool
        return pool


def _acquire_pool(n_workers: int) -> None:
    """Register one owner of the ``n_workers``-wide shared pool."""
    n_workers = max(1, int(n_workers))
    with _pools_lock:
        _pool_refs[n_workers] = _pool_refs.get(n_workers, 0) + 1


def _release_pool(n_workers: int) -> None:
    """Drop one ownership reference; the last owner shuts the pool down.

    Shutdown is non-blocking and never cancels queued work, so a racing
    anonymous :func:`shared_pool` user finishes cleanly and simply gets a
    fresh pool on its next call.
    """
    n_workers = max(1, int(n_workers))
    with _pools_lock:
        refs = _pool_refs.get(n_workers, 0) - 1
        if refs > 0:
            _pool_refs[n_workers] = refs
            return
        _pool_refs.pop(n_workers, None)
        pool = _pools.pop(n_workers, None)
    if pool is not None:
        pool.shutdown(wait=False)


def default_workers() -> int:
    """Worker count used when the caller does not pin one."""
    return os.cpu_count() or 1


def shard_queries(n: int, n_shards: int) -> list[np.ndarray]:
    """Split query indices [0, n) into up to ``n_shards`` even,
    contiguous shards (contiguity keeps each shard cache-friendly)."""
    n_shards = max(1, min(n_shards, n)) if n else 1
    return [s for s in np.array_split(np.arange(n, dtype=np.int64), n_shards) if len(s)]


def plan_shards(n: int, n_workers: int) -> list[np.ndarray]:
    """The shard plan for a batch of ``n`` queries over ``n_workers``.

    One shard per worker, more only when a shard would exceed
    :data:`MAX_SHARD_ROWS` rows (extra small shards cost more than they
    balance; big ones spill out of cache), and none under
    :data:`MIN_SHARD_SIZE` rows, so smaller batches run serially. This
    is the one fan-out rule: every sharded launch, planned or not, uses it.
    """
    if n_workers <= 1 or n < 2 * MIN_SHARD_SIZE:
        return shard_queries(n, 1)
    per_worker = -(-n // (n_workers * MAX_SHARD_ROWS))  # ceiling division
    return shard_queries(n, min(n // MIN_SHARD_SIZE, n_workers * per_worker))


class ChunkedExecutor:
    """Run query work over shards of a batch on the shared thread pool.

    The executor carries only a worker count; shard sizing is
    :func:`plan_shards` and the pool itself is module-level and shared,
    so instances are cheap to create.
    """

    def __init__(self, n_workers: int | None = None):
        if n_workers is not None and int(n_workers) < 1:
            raise ValueError(
                f"n_workers must be >= 1, got {n_workers} (use None for all cores)"
            )
        self.n_workers = int(n_workers) if n_workers is not None else default_workers()
        self._owns_pool = False
        self._closed = False

    def _pool(self) -> ThreadPoolExecutor:
        """The shared pool, acquiring ownership on first concurrent use so
        :meth:`close` knows a reference must be released."""
        if self._closed:
            raise RuntimeError("ChunkedExecutor is closed")
        if not self._owns_pool:
            _acquire_pool(self.n_workers)
            self._owns_pool = True
        return shared_pool(self.n_workers)

    def close(self) -> None:
        """Release this executor's pool reference (idempotent).

        The last owner of a width shuts its pool down and removes it from
        the module registry, so sweeping worker counts (a bench run over
        indexes of different widths) does not strand one idle thread pool
        per width for the life of the process.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_pool:
            self._owns_pool = False
            _release_pool(self.n_workers)

    def __enter__(self) -> "ChunkedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def plan(self, n: int) -> list[np.ndarray]:
        """The shard plan (global query-index arrays) for ``n`` queries."""
        return plan_shards(n, self.n_workers)

    def map(
        self,
        work: Callable,
        shards: Sequence[np.ndarray],
        tracer=None,
        parent=None,
        span_name: str = "shard",
    ) -> list:
        """Apply ``work(shard_indices)`` to every shard, concurrently when
        there is more than one shard; results keep shard order.

        When a ``tracer`` is given, each shard dispatch is recorded as a
        ``span_name`` span under ``parent`` (pool threads have no open
        span of their own, so the parent must be explicit). Tracing is
        observation only: shard planning, ordering and results are
        unchanged.
        """
        if tracer is not None and tracer.enabled:
            def traced(item):
                i, s = item
                with tracer.span(span_name, parent=parent, shard=i, n_queries=len(s)):
                    return work(s)

            items = list(enumerate(shards))
            if len(items) <= 1:
                return [traced(item) for item in items]
            return list(self._pool().map(traced, items))
        if len(shards) <= 1:
            return [work(s) for s in shards]
        return list(self._pool().map(work, shards))
