"""The launch reduction shared by every predicate (Algorithm 2's ``Query``).

Each predicate runs as one or two casting launches over a row set: the
query points, the query-rectangle centers, the query diagonals, or the
k-replicated backward anti-diagonals. A launch runs its shard kernel
over a shard plan — serially as one shard or on the thread pool
(:class:`~repro.parallel.executor.ChunkedExecutor`) — and both paths
reduce their shard parts through :func:`merge_launch`: pair arrays
concatenated in shard order, per-ray counters scatter-merged into the
launch's slots (:func:`~repro.rtcore.stats.merge_shard_stats`), and the
merged counters priced once against the traversed structure. Pairs,
counters and simulated times are therefore identical under any
sharding by construction, not by keeping copies in step.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import NULL_TRACER
from repro.rtcore.stats import merge_shard_stats


def merge_launch(index, n: int, shards, parts, nodes: int):
    """Reduce one ``n``-row launch from its shard parts.

    ``parts[i]`` is the kernel's ``(rect_ids, rows, stats, ...)`` for
    ``shards[i]`` with ``rows`` in launch coordinates. ``nodes`` is the
    node count of the traversed structure. Returns ``(rect_ids, rows,
    stats, sim)`` with the merged launch counters and their simulated
    time on ``index.platform``.
    """
    rect_ids = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
    rows = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, np.int64)
    stats = merge_shard_stats(n, [(p[2], s) for p, s in zip(parts, shards)])
    return rect_ids, rows, stats, index.platform.query_time(stats, nodes)


def cast(index, span: str, n: int, work, executor, nodes: int, **attrs):
    """Run one ``n``-row launch of ``work`` under a ``span`` span.

    ``executor=None`` runs the whole launch as one ``shard`` span on the
    calling thread; otherwise ``executor.plan``/``executor.map`` shard
    it. The span records the launch's simulated time, counter totals and
    shard count. Returns ``(merged, parts, shards)`` where ``merged`` is
    :func:`merge_launch`'s tuple.
    """
    tracer = getattr(index, "tracer", NULL_TRACER)
    with tracer.span(span, **attrs) as sp:
        if executor is None:
            shards = [np.arange(n, dtype=np.int64)]
            with tracer.span("shard", shard=0, n_queries=n):
                parts = [work(shards[0])]
        else:
            shards = executor.plan(n)
            parts = executor.map(work, shards, tracer=tracer, parent=sp)
        merged = merge_launch(index, n, shards, parts, nodes)
        if tracer.enabled:
            _, _, stats, sp.sim_time = merged
            sp.counters = {k: v for k, v in stats.totals().items() if k != "rays"}
            sp.attrs["n_shards"] = len(shards)
    return merged, parts, shards


def cast_result(merged, parts, shards):
    """``(rect_ids, query_ids, phases, meta)`` of a single-launch
    predicate (point, Range-Contains); ``parts[i][3]`` is the shard's
    candidate count before the exact IS-shader filter."""
    rect_ids, rows, stats, sim = merged
    meta = {
        "stats": stats.totals(),
        "stats_obj": stats,
        "n_candidates": int(sum(p[3] for p in parts)),
        "n_shards": len(shards),
    }
    return rect_ids, rows, {"cast": sim}, meta


def intersects_result(k: int, k_sim: float, bvh_sim: float, fwd, bwd, n_shards: int):
    """``(rect_ids, query_ids, phases, meta)`` of a Range-Intersects
    query from its merged forward and backward launches (the paper's
    four phases, Figure 9b)."""
    fr, fq, stats_f, f_sim = fwd
    br, bq, stats_b, b_sim = bwd
    phases = {
        "k_prediction": k_sim,
        "bvh_build": bvh_sim,
        "forward_cast": f_sim,
        "backward_cast": b_sim,
    }
    meta = {
        "k": int(k),
        "forward_stats": stats_f.totals(),
        "backward_stats": stats_b.totals(),
        "forward_stats_obj": stats_f,
        "backward_stats_obj": stats_b,
        "n_shards": n_shards,
    }
    return np.concatenate([fr, br]), np.concatenate([fq, bq]), phases, meta
