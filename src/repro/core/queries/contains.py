"""Point query and Range-Contains query (paper §3.1, §3.2, Figure 3).

Both answer ``Contains(r, s)`` with one launch of *short rays*: origin
at a point, arbitrary direction, ``tmax`` set to the smallest positive
float. A Case-2 (origin inside) intersection then means the point lies
in the AABB; rare Case-1 boundary grazes are the paper's "false positive
hits" and are removed by the exact predicate in the IS shader.

- A point query casts from the query points and filters with the exact
  point-in-rectangle Contains (Definition 1).
- ``Contains(r, s)`` for a query rectangle s implies the center of s
  lies in r, so Range-Contains casts from the query rectangles' centers
  and filters with the exact rectangle-rectangle Contains
  (Definition 2). The reduction is lossless: midpoints of
  floating-point intervals always lie within the interval, so a truly
  contained rectangle's center ray is guaranteed to register a Case-2
  hit on r's AABB.

Execution is shardable over the query set: when an executor is supplied,
contiguous shards traverse the index concurrently (NumPy releases the
GIL inside the traversal kernels) and per-shard counters are merged
back into the logical launch, so simulated times are invariant under
sharding.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import Boxes
from repro.geometry.predicates import pairwise_box_contains_box, pairwise_box_contains_point
from repro.geometry.ray import Rays
from repro.core.queries.launch import cast, cast_result
from repro.obs.tracer import NULL_TRACER
from repro.rtcore.stats import TraversalStats


def make_contains_work(index, origins: np.ndarray, exact, tracer=NULL_TRACER):
    """Build the per-shard short-ray kernel over ray ``origins``.

    ``exact(r_mins, r_maxs, rows)`` is the IS shader's exact predicate:
    the candidate rectangles' bounds against query ``rows``. The
    returned ``work(idx)`` traverses the rows selected by ``idx`` and
    returns ``(rect_ids, idx[rows], stats, n_candidates)`` with global
    rectangle ids and per-shard counters. Serial and thread-pool
    launches run this exact kernel — row slicing commutes with every
    operation in it, so shard results and counters are identical under
    any shard plan.
    """
    rays = Rays.point_rays(origins)
    remap = index._remap

    def work(idx: np.ndarray):
        """Traverse one shard; ids local to the shard except ``gids``."""
        stats = TraversalStats(len(idx))
        hits = index._ias.traverse(
            rays.origins[idx], rays.dirs[idx], rays.tmins[idx], rays.tmaxs[idx],
            stats, tracer=tracer,
        )
        # --- IS shader: global primitive id + exact Contains filter ------
        gids = index.global_ids(hits.instance_ids, hits.prims)
        rows = idx[hits.rows]
        keep = exact(index._mins[gids], index._maxs[gids], rows)
        rect_ids = gids[keep]
        if remap is not None:
            # Internal slots -> stable public ids (repro.churn); the
            # exact filter above already ran in slot coordinates.
            rect_ids = remap[rect_ids]
        stats.count_results(hits.rows[keep])
        return rect_ids, rows[keep], stats, len(hits)

    return work


def run_contains_query(index, queries, handler=None, executor=None):
    """Execute a Contains query against an :class:`~repro.core.index.RTSIndex`.

    ``queries`` is an ``(n, ndim)`` point array for the point query and
    a :class:`~repro.geometry.boxes.Boxes` for Range-Contains: all
    ``(r, s)`` with r containing s. ``executor`` is an optional
    :class:`~repro.parallel.executor.ChunkedExecutor`; ``None`` runs the
    whole batch as a single shard on the calling thread. Returns
    ``(rect_ids, query_ids, phases, meta)``; the caller wraps them in a
    :class:`~repro.core.result.QueryResult`.
    """
    tracer = getattr(index, "tracer", NULL_TRACER)
    if isinstance(queries, Boxes):
        q = queries.astype(index.dtype)
        if q.ndim != index.ndim:
            raise ValueError(f"expected {index.ndim}-D query rectangles")
        span = "contains.cast"
        origins = np.ascontiguousarray(q.centers(), dtype=index.dtype)

        def exact(r_mins, r_maxs, rows):
            return pairwise_box_contains_box(r_mins, r_maxs, q.mins[rows], q.maxs[rows])

    else:
        q = np.ascontiguousarray(queries, dtype=index.dtype)
        if q.ndim != 2 or q.shape[1] != index.ndim:
            raise ValueError(f"expected points of shape (n, {index.ndim})")
        span, origins = "point.cast", q

        def exact(r_mins, r_maxs, rows):
            return pairwise_box_contains_point(r_mins, r_maxs, q[rows])

    n = len(q)
    work = make_contains_work(index, origins, exact, tracer=tracer)
    merged, parts, shards = cast(
        index, span, n, work, executor, index.total_nodes(), n_queries=n
    )
    rect_ids, query_ids, phases, meta = cast_result(merged, parts, shards)
    if handler is not None:
        handler.on_results(rect_ids, query_ids)
    return rect_ids, query_ids, phases, meta
