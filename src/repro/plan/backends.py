"""LBVH execution behind the planner.

When the planner prices the software-GPU LBVH below the RT pipeline for
a batch, this module answers the batch on LBVHs and returns the
``(rect_ids, query_ids, phases, meta)`` shape the index's query dispatch
expects: global rectangle ids, with exact pair parity with the RT path
(both backends implement the closed-box predicate semantics of
:mod:`repro.geometry.predicates`).

Every GAS carries its own LBVH (:attr:`GeometryAS.lbvh
<repro.rtcore.gas.GeometryAS.lbvh>`), built lazily over that GAS's
primitive buffer, as LibRTS (§4.1–4.2) keeps one GAS per insertion
batch. Index forks share a GAS until a copy-on-write copy, so they share
its LBVH too, and a write builds at most the GASes it created or
changed: an insert builds only its own batch's LBVH, and a
:class:`~repro.churn.ChurnIndex` keeps its main LBVH until compaction.
A batch is one lockstep launch over every GAS's LBVH
(:func:`~repro.baselines.lbvh.lbvh_launch`), as the RT IAS path
traverses its instances. The candidates then pass the same exact test
as the RT path's IS shaders, against the index's global view buffers.
Those hold each live slot's GAS box and a degenerate box for every
deleted slot, so tombstoned main-resident slots, whose stale geometry
the main GAS and its LBVH still hold, are dropped there.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.lbvh import LEAF_SIZE, lbvh_launch
from repro.core.index import Predicate
from repro.perfmodel.build import BuildModel
from repro.perfmodel.platforms import software_gpu_platform
from repro.plan.cost import LBVH
from repro.rtcore.bvh import BVH
from repro.rtcore.stats import TraversalStats

#: The GPU model pricing LBVH launches: software traversal on the SMs.
PLATFORM = software_gpu_platform()

_KINDS = {
    Predicate.CONTAINS_POINT: "point",
    Predicate.RANGE_CONTAINS: "contains",
    Predicate.RANGE_INTERSECTS: "intersects",
}


def gas_lbvh(gas) -> tuple[BVH, bool]:
    """``gas``'s LBVH and whether this call built it.

    Two readers that find no tree may both build one; the trees are
    identical, and each is published whole by the one assignment."""
    bvh = gas.lbvh
    if bvh is not None:
        return bvh, False
    bvh = BVH(gas.boxes, leaf_size=LEAF_SIZE)
    gas.lbvh = bvh
    return bvh, True


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
    deliver. ``meta["backend_build_s"]`` is the simulated build of the
    LBVHs this call built (0.0 when every one was built already), and
    ``meta["backend_built_now"]`` says whether it built any."""
    if backend != LBVH:
        raise ValueError(f"unknown baseline backend: {backend!r}")
    if predicate not in _KINDS:
        raise ValueError(f"unsupported predicate: {predicate!r}")
    if predicate is Predicate.CONTAINS_POINT:
        # Same coercion + shape contract as the RT pipeline
        # (core.queries.contains); casting to the index dtype first keeps
        # pair parity exact.
        q = np.ascontiguousarray(payload, dtype=index.dtype)
        if q.ndim != 2 or q.shape[1] != index.ndim:
            raise ValueError(f"expected points of shape (n, {index.ndim})")
    else:
        if predicate is Predicate.RANGE_INTERSECTS and payload.is_degenerate().any():
            # Same contract as the RT pipeline (core.queries.intersects).
            raise ValueError("query rectangles must not be degenerate")
        q = payload.astype(index.dtype)

    bvhs, batches, build_s, built_now = [], [], 0.0, False
    for b, gas in enumerate(index._gases):
        if len(gas):
            bvh, built = gas_lbvh(gas)
            if built:
                build_s += BuildModel.lbvh_build(len(gas))
                built_now = True
            bvhs.append(bvh)
            batches.append(b)
    stats = TraversalStats(len(q))
    rect_ids, query_ids = lbvh_launch(
        bvhs, index._prefix[batches], _KINDS[predicate], q, index._mins, index._maxs, stats
    )
    remap = index._remap
    if remap is not None:
        # Internal slots -> stable public ids (repro.churn). Canonical
        # order is restored by the QueryResult constructor in the query
        # dispatch, the contract the RT path's shard output relies on.
        rect_ids = remap[rect_ids]
    if handler is not None:
        handler.on_results(rect_ids, query_ids)
    n_nodes = sum(bvh.n_nodes for bvh in bvhs)
    phases = {"cast": PLATFORM.query_time(stats, n_nodes)}
    meta = {
        "backend": backend,
        "backend_build_s": build_s,
        "backend_built_now": built_now,
    }
    return rect_ids, query_ids, phases, meta
