"""LBVH execution behind the planner.

When the planner prices the software-GPU LBVH below the RT pipeline for
a batch, this module runs the batch on that in-tree baseline and adapts
its :class:`~repro.baselines.base.BaselineResult` into the
``(rect_ids, query_ids, phases, meta)`` shape the index's query dispatch
expects — global rectangle ids, canonical pair order, exact pair parity
with the RT path (both backends implement the same closed-box predicate
semantics of :mod:`repro.geometry.predicates`).

The LBVH is built over the index's *live* rectangles and cached on the
index keyed by backend and epoch, so a serving snapshot pays the build
at most once; any mutation bumps the epoch and invalidates the cache.
LBVH rect ids are positions into the live subset — they are remapped
through the (monotonically increasing) ``live_ids`` array, which
preserves canonical query-major order.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.lbvh import LBVHIndex
from repro.core.index import Predicate
from repro.plan.cost import LBVH


class CachedBackend:
    """The built LBVH plus the id remap it answers under."""

    __slots__ = ("epoch", "live_ids", "instance", "build_s")

    def __init__(self, epoch, live_ids, instance, build_s):
        self.epoch = int(epoch)
        self.live_ids = live_ids
        self.instance = instance
        self.build_s = float(build_s)


def backend_instance(index, backend: str) -> tuple[CachedBackend, bool]:
    """The cached LBVH at the index's current epoch, building (and
    caching on the index) when stale. Returns ``(cached, built_now)`` —
    ``built_now`` tells the caller whether the simulated build cost was
    incurred by *this* call (the bench charges it to the planned side
    only when actually paid)."""
    if backend != LBVH:
        raise ValueError(f"unknown baseline backend: {backend!r}")
    cached = index._baseline_cache.get(backend)
    if cached is not None and cached.epoch == index.epoch:
        return cached, False
    live_ids = np.flatnonzero(~index._deleted)
    instance = LBVHIndex(index.all_boxes()[live_ids])
    cached = CachedBackend(index.epoch, live_ids, instance, instance.build_time())
    index._baseline_cache[backend] = cached
    return cached, True


def execute_baseline(
    index,
    backend: str,
    predicate: Predicate,
    payload,
    handler=None,
) -> tuple[np.ndarray, np.ndarray, dict, dict]:
    """Run one query batch on a baseline backend (``"lbvh"``).

    ``payload`` is the already-coerced query buffer (a point array for
    CONTAINS_POINT, :class:`Boxes` otherwise). Returns the query
    dispatch's ``(rect_ids, query_ids, phases, meta)`` tuple with global
    rect ids; the handler, if any, sees the same pairs the RT path would
    deliver."""
    if predicate is Predicate.CONTAINS_POINT:
        # Same coercion + shape contract as the RT pipeline
        # (core.queries.contains); casting to the index dtype first keeps
        # pair parity exact.
        payload = np.ascontiguousarray(payload, dtype=index.dtype)
        if payload.ndim != 2 or payload.shape[1] != index.ndim:
            raise ValueError(f"expected points of shape (n, {index.ndim})")
    elif predicate is Predicate.RANGE_INTERSECTS and payload.is_degenerate().any():
        # Same contract as the RT pipeline (core.queries.intersects).
        raise ValueError("query rectangles must not be degenerate")
    cached, built_now = backend_instance(index, backend)
    inst = cached.instance
    if predicate is Predicate.CONTAINS_POINT:
        res = inst.point_query(payload)
    elif predicate is Predicate.RANGE_CONTAINS:
        res = inst.contains_query(payload)
    elif predicate is Predicate.RANGE_INTERSECTS:
        res = inst.intersects_query(payload)
    else:
        raise ValueError(f"unsupported predicate: {predicate!r}")
    # Baseline ids are positions into the live subset; live_ids is
    # monotonic, so the remap preserves canonical query-major order.
    rect_ids = cached.live_ids[res.rect_ids]
    remap = index._remap
    if remap is not None:
        # Internal slots -> stable public ids (repro.churn). This remap
        # is *not* monotonic, so canonical order is restored by the
        # QueryResult constructor in the query dispatch — the same
        # contract the RT path's concatenated shard output relies on.
        rect_ids = remap[rect_ids]
    query_ids = res.query_ids
    if handler is not None:
        handler.on_results(rect_ids, query_ids)
    phases = {"cast": res.sim_time}
    meta = {
        "backend": backend,
        "backend_build_s": cached.build_s,
        "backend_built_now": built_now,
    }
    return rect_ids, query_ids, phases, meta
