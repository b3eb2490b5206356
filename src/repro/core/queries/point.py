"""Point query (paper §3.1, Figure 3).

Given indexed rectangles R and query points S, return every pair (r, s)
with ``Contains(r, s)``. Each point is simulated by a *short ray*: origin
at the point, arbitrary direction, ``tmax`` set to the smallest positive
float. A Case-2 (origin inside) intersection then means the point lies in
the AABB; rare Case-1 boundary grazes are the paper's "false positive
hits" and are removed by evaluating the exact Contains predicate in the
IS shader.

Execution is shardable over the query set: when an executor is supplied,
contiguous point shards traverse the index concurrently (NumPy releases
the GIL inside the traversal kernels) and per-shard counters are merged
back into the logical launch, so simulated times are invariant under
sharding.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.predicates import pairwise_box_contains_point
from repro.geometry.ray import Rays
from repro.core.queries.launch import cast, cast_result
from repro.obs.tracer import NULL_TRACER
from repro.rtcore.stats import TraversalStats


def make_point_work(index, pts: np.ndarray, tracer=NULL_TRACER):
    """Build the per-shard point-cast kernel over ``pts``.

    The returned ``work(idx)`` traverses the rows of ``pts`` selected by
    ``idx`` and returns ``(rect_ids, idx[rows], stats, n_candidates)``
    with global rectangle ids and per-shard counters. Serial and
    thread-pool launches run this exact kernel — row slicing commutes
    with every operation in it, so shard results and counters are
    identical under any shard plan.
    """
    rays = Rays.point_rays(pts)
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
        keep = pairwise_box_contains_point(
            index._mins[gids], index._maxs[gids], pts[idx[hits.rows]]
        )
        rect_ids = gids[keep]
        if remap is not None:
            # Internal slots -> stable public ids (repro.churn); the
            # exact filter above already ran in slot coordinates.
            rect_ids = remap[rect_ids]
        local_rows = hits.rows[keep]
        stats.count_results(local_rows)
        return rect_ids, idx[local_rows], stats, len(hits)

    return work


def run_point_query(index, points: np.ndarray, handler=None, executor=None):
    """Execute a point query against an :class:`~repro.core.index.RTSIndex`.

    ``executor`` is an optional
    :class:`~repro.parallel.executor.ChunkedExecutor`; ``None`` runs the
    whole batch as a single shard on the calling thread. Returns
    ``(rect_ids, point_ids, phases, meta)``; the caller wraps them in a
    :class:`~repro.core.result.QueryResult`.
    """
    tracer = getattr(index, "tracer", NULL_TRACER)
    pts = np.ascontiguousarray(points, dtype=index.dtype)
    if pts.ndim != 2 or pts.shape[1] != index.ndim:
        raise ValueError(f"expected points of shape (n, {index.ndim})")

    n = len(pts)
    work = make_point_work(index, pts, tracer=tracer)
    merged, parts, shards = cast(
        index, "point.cast", n, work, executor, index.total_nodes(), n_queries=n
    )
    rect_ids, point_ids, phases, meta = cast_result(merged, parts, shards)
    if handler is not None:
        handler.on_results(rect_ids, point_ids)
    return rect_ids, point_ids, phases, meta
