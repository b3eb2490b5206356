"""Range query with the Contains predicate (paper §3.2).

``Contains(r, s)`` implies the center point of s lies in r, so the range
query reduces to a point query over the query rectangles' centers; the
candidate pairs it yields are then filtered with the exact
rectangle-rectangle Contains predicate (Definition 2).

The reduction is lossless: midpoints of floating-point intervals always
lie within the interval, so a truly contained rectangle's center ray is
guaranteed to register a Case-2 hit on r's AABB.

Like the point query, the center-ray launch shards over the query set
when an executor is supplied; per-shard counters merge back into the
logical launch, keeping simulated times invariant under sharding.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import Boxes
from repro.geometry.predicates import pairwise_box_contains_box
from repro.geometry.ray import Rays
from repro.core.queries.launch import cast, cast_result
from repro.obs.tracer import NULL_TRACER
from repro.rtcore.stats import TraversalStats


def make_contains_work(index, q: Boxes, tracer=NULL_TRACER):
    """Build the per-shard center-ray kernel over query rectangles ``q``.

    Same sharding contract as
    :func:`~repro.core.queries.point.make_point_work`: ``work(idx)`` is
    row-sliceable, so any shard plan produces bit-identical results and
    counters.
    """
    centers = q.centers()
    rays = Rays.point_rays(np.ascontiguousarray(centers, dtype=index.dtype))
    remap = index._remap

    def work(idx: np.ndarray):
        stats = TraversalStats(len(idx))
        hits = index._ias.traverse(
            rays.origins[idx], rays.dirs[idx], rays.tmins[idx], rays.tmaxs[idx],
            stats, tracer=tracer,
        )
        # --- IS shader: exact Contains(r, s) on the full query rectangle -
        gids = index.global_ids(hits.instance_ids, hits.prims)
        rows_g = idx[hits.rows]
        keep = pairwise_box_contains_box(
            index._mins[gids],
            index._maxs[gids],
            q.mins[rows_g],
            q.maxs[rows_g],
        )
        rect_ids = gids[keep]
        if remap is not None:
            # Internal slots -> stable public ids (repro.churn).
            rect_ids = remap[rect_ids]
        local_rows = hits.rows[keep]
        stats.count_results(local_rows)
        return rect_ids, rows_g[keep], stats, len(hits)

    return work


def run_contains_query(index, queries: Boxes, handler=None, executor=None):
    """Execute a Range-Contains query: all (r, s) with r containing s."""
    tracer = getattr(index, "tracer", NULL_TRACER)
    q = queries.astype(index.dtype)
    if q.ndim != index.ndim:
        raise ValueError(f"expected {index.ndim}-D query rectangles")

    n = len(q)
    work = make_contains_work(index, q, tracer=tracer)
    merged, parts, shards = cast(
        index, "contains.cast", n, work, executor, index.total_nodes(), n_queries=n
    )
    rect_ids, query_ids, phases, meta = cast_result(merged, parts, shards)
    if handler is not None:
        handler.on_results(rect_ids, query_ids)
    return rect_ids, query_ids, phases, meta
