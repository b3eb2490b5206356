"""Range query with the Intersects predicate (paper §3.3, Algorithm 1).

The query is reformulated as rectangle-diagonal intersection tests
(Theorem 1): two rectangles intersect iff the diagonal of one meets the
other or the anti-diagonal of the other meets the one (containment is
covered by Case-2 origin-inside hits). Two ray-casting passes follow:

- **Forward Casting** — rays along the diagonals of the queries S,
  traversing the index BVH over R;
- **Backward Casting** — rays along the anti-diagonals of the data
  rectangles R, traversing a BVH built over S at query time (its build
  time is charged to the query, as the paper's timing methodology does).

A pair discoverable by both passes is kept only in the forward pass
(Algorithm 1 line 19), so the union is exact and duplicate-free.

Backward casting is where the paper observes severe load imbalance, so
the S-side BVH is laid out with Ray Multicast (§3.4): S is split into k
sub-spaces and every backward ray is replicated k times. k comes from the
cost model with a sampled selectivity estimate unless the caller pins it.

3-D note: diagonal casting is *not* complete in 3-D — two boxes can
intersect while every space diagonal of each misses the other (e.g.
``[0,100]x[40,60]x[43,60]`` vs ``[40,60]x[0,100]x[40,44]``). LibRTS
therefore runs the provably complete 2-D formulation on the xy shadows
(cast into z-flattened BVHs) and applies the exact z-overlap filter in
the IS shader.

Parallel execution shards the two *casting launches* (forward rays over
the queries, backward rays over the k-replicated data anti-diagonals)
while the k prediction and the S-side BVH build stay global — they
depend on the whole query set, and sharding them would change the
algorithm. Per-shard counters merge back into the logical launches, so
pairs, per-ray stats and simulated times are invariant under sharding.
"""

from __future__ import annotations

import numpy as np

from repro.core.multicast import (
    MulticastLayout,
    estimate_selectivity,
    predict_k,
)
from repro.core.queries.launch import cast, intersects_result
from repro.geometry.boxes import Boxes
from repro.geometry.segment import (
    anti_diagonal,
    diagonal,
    pairwise_segment_intersects_box,
)
from repro.obs.tracer import NULL_TRACER
from repro.perfmodel import calibration as C
from repro.perfmodel.build import BuildModel
from repro.rtcore.gas import GeometryAS
from repro.rtcore.stats import TraversalStats


def _flatten(boxes: Boxes) -> Boxes:
    """Collapse the z extent to [0, 0] (3-D shadow casting)."""
    mins = boxes.mins.copy()
    maxs = boxes.maxs.copy()
    mins[:, 2] = 0.0
    maxs[:, 2] = 0.0
    return Boxes(mins, maxs, dtype=boxes.dtype)


def _z_overlap(r_mins, r_maxs, s_mins, s_maxs) -> np.ndarray:
    """Exact z-interval overlap for aligned pairs (3-D only)."""
    return (r_mins[:, 2] <= s_maxs[:, 2]) & (r_maxs[:, 2] >= s_mins[:, 2])


def resolve_k(index, q: Boxes, live_ids: np.ndarray, k: int | None, tracer=NULL_TRACER):
    """Phase 1: resolve the multicast parameter for one query batch.

    Returns ``(k, sim_seconds)``. When ``k`` is ``None`` and multicast is
    on, this consumes ``index.rng`` (the sampled selectivity estimate),
    so ``k`` is resolved once per batch, on the calling thread, before
    any shard runs: every shard casts with the same ``k``, and the RNG
    stream does not depend on the shard plan.
    """
    if k is not None:
        return int(k), 0.0
    if not index.multicast:
        return 1, 0.0
    n_s = len(q)
    with tracer.span("intersects.k_prediction", n_queries=n_s) as k_sp:
        s_hat, trial_pairs = estimate_selectivity(
            index.all_boxes()[live_ids], q, index.rng, index.sample_size
        )
        est_total = s_hat * len(live_ids) * n_s
        k = predict_k(n_s, len(live_ids), est_total, w=index.w)
        # The trial run's sample size is fixed (it does not scale
        # with the data), so it is priced on the full machine.
        sim = trial_pairs * C.IS_OP / C.GPU_LANE_THROUGHPUT + C.GPU_LAUNCH_OVERHEAD
        if tracer.enabled:
            k_sp.sim_time = sim
            k_sp.attrs["k"] = int(k)
            k_sp.attrs["trial_pairs"] = int(trial_pairs)
    return int(k), sim


class IntersectsContext:
    """Prepared execution state for one Range-Intersects batch.

    Owns everything both casting passes need once ``k`` is resolved: the
    casting geometry, the query-side multicast GAS, the forward
    traversable, and the replicated backward rays — plus the two shard
    kernels ``fwd_work``/``bwd_work``. One is built per query. All
    preparation is deterministic (no RNG, no counters), so every shard
    of both passes sees the same prepared state.
    """

    def __init__(self, index, q: Boxes, k: int, tracer=NULL_TRACER):
        self.index = index
        self.tracer = tracer
        self.q = q
        self.k = int(k)
        self.n_s = len(q)
        self.is_3d = index.ndim == 3
        # The casting geometry: xy shadows in 3-D, the rectangles
        # themselves in 2-D. Exact predicates always re-check in
        # original coordinates.
        self.q_cast = _flatten(q) if self.is_3d else q
        self.live_ids = np.nonzero(~index._deleted)[0]
        self.all_mins, self.all_maxs = index._mins, index._maxs
        #: Internal-slot -> public-id remap (repro.churn), applied at
        #: result emission in both casting kernels; None on the plain
        #: index.
        self.remap = index._remap

        # ---- Phase 2: build the query-side BVH with the multicast layout
        with tracer.span(
            "intersects.bvh_build", n_queries=self.n_s, k=self.k
        ) as b_sp:
            idx_lo, idx_hi = index.bounds()
            q_lo, q_hi = self.q_cast.union_bounds()
            d_cast = self.q_cast.ndim
            lo = np.minimum(idx_lo[:d_cast], q_lo)
            hi = np.maximum(idx_hi[:d_cast], q_hi)
            if self.is_3d:
                lo[2], hi[2] = 0.0, 0.0
            self.layout = MulticastLayout(self.q_cast, self.k, lo, hi)
            self.s_gas = GeometryAS(self.layout.boxes_t, leaf_size=index.leaf_size)
            self.bvh_build_sim = BuildModel.optix_gas_build(self.n_s)
            if tracer.enabled:
                b_sp.sim_time = self.bvh_build_sim

        # The forward traversable is materialized before any shard work
        # runs: in 3-D it lazily builds the flattened shadow IAS, which
        # must not race.
        if self.is_3d:
            with tracer.span(
                "intersects.flat_ias_build",
                cached=index._flat_ias_cache is not None,
            ):
                self.fwd_ias = index.intersects_ias()
        else:
            self.fwd_ias = index.intersects_ias()
        self.d1, self.d2 = diagonal(self.q_cast)
        self.ddir = self.d2 - self.d1

        # Backward-pass geometry: replicated anti-diagonals of the live
        # rectangles (pure precomputation — safe to hoist before the
        # forward cast; no counters or RNG are touched).
        live_boxes = index.all_boxes()[self.live_ids]
        live_cast = _flatten(live_boxes) if self.is_3d else live_boxes
        self.b1, self.b2 = anti_diagonal(live_cast)
        b1t, b2t = self.layout.replicate_segments(self.b1, self.b2)
        self.b1t = b1t.astype(index.dtype)
        self.b2t = b2t.astype(index.dtype)
        self.bdir = self.b2t - self.b1t
        #: Backward launch width: every live rectangle, k-fold replicated.
        self.m = len(self.b1t)
        #: Node count the backward launch is priced against (the S-side
        #: structure: 2·n_s - 1 BVH nodes, rounded up as 2·n_s by the
        #: historical pricing call).
        self.backward_nodes = 2 * len(self.layout.boxes_t)

    def fwd_work(self, idx: np.ndarray):
        """Forward-cast one shard of query diagonals."""
        index, tracer = self.index, self.tracer
        q, q_cast, is_3d = self.q, self.q_cast, self.is_3d
        d1, d2 = self.d1, self.d2
        stats = TraversalStats(len(idx))
        fhits = self.fwd_ias.traverse(
            d1[idx],
            self.ddir[idx],
            np.zeros(len(idx), dtype=q_cast.dtype),
            np.ones(len(idx), dtype=q_cast.dtype),
            stats,
            tracer=tracer,
        )
        f_gids = index.global_ids(fhits.instance_ids, fhits.prims)
        f_rows = idx[fhits.rows]
        # IS shader: exact diagonal test, then the anti-diagonal dedup
        # check (keep only if NOT discoverable by backward casting).
        r_mins_f = self.all_mins[f_gids]
        r_maxs_f = self.all_maxs[f_gids]
        if is_3d:
            shadow = _flatten(Boxes(r_mins_f, r_maxs_f, dtype=index.dtype))
            r_mins_cast, r_maxs_cast = shadow.mins, shadow.maxs
        else:
            r_mins_cast, r_maxs_cast = r_mins_f, r_maxs_f
        fwd_detect = pairwise_segment_intersects_box(
            d1[f_rows], d2[f_rows], r_mins_cast, r_maxs_cast
        )
        a1, a2 = anti_diagonal(Boxes(r_mins_cast, r_maxs_cast, dtype=index.dtype))
        bwd_detect = pairwise_segment_intersects_box(
            a1, a2, q_cast.mins[f_rows], q_cast.maxs[f_rows]
        )
        keep_f = fwd_detect & ~bwd_detect
        if is_3d:
            keep_f &= _z_overlap(r_mins_f, r_maxs_f, q.mins[f_rows], q.maxs[f_rows])
        stats.count_results(fhits.rows[keep_f])
        rect_ids = f_gids[keep_f]
        if self.remap is not None:
            rect_ids = self.remap[rect_ids]
        return rect_ids, f_rows[keep_f], stats

    def bwd_work(self, idx: np.ndarray):
        """Backward-cast one shard of replicated anti-diagonal rays."""
        index, k = self.index, self.k
        q, q_cast, is_3d = self.q, self.q_cast, self.is_3d
        stats = TraversalStats(len(idx))
        cand = self.s_gas.traverse(
            self.b1t[idx],
            self.bdir[idx],
            np.zeros(len(idx), dtype=index.dtype),
            np.ones(len(idx), dtype=index.dtype),
            stats,
            tracer=self.tracer,
        )
        rows_g = idx[cand.rows]
        logical = rows_g // k
        copy = rows_g % k
        # IS shader: the sub-space filter removes cross-boundary candidates
        # (each primitive is owned by exactly one sub-space), then the
        # exact anti-diagonal test runs in original coordinates.
        sub_ok = self.layout.subspace[cand.prims] == copy
        logical, prims = logical[sub_ok], cand.prims[sub_ok]
        rows_l = cand.rows[sub_ok]
        r_ids_b = self.live_ids[logical]
        bwd_exact = pairwise_segment_intersects_box(
            self.b1[logical], self.b2[logical], q_cast.mins[prims], q_cast.maxs[prims]
        )
        if is_3d:
            bwd_exact &= _z_overlap(
                self.all_mins[r_ids_b],
                self.all_maxs[r_ids_b],
                q.mins[prims],
                q.maxs[prims],
            )
        stats.count_results(rows_l[bwd_exact])
        rect_ids = r_ids_b[bwd_exact]
        if self.remap is not None:
            rect_ids = self.remap[rect_ids]
        return rect_ids, prims[bwd_exact], stats


def run_intersects_query(
    index, queries: Boxes, handler=None, k: int | None = None, executor=None
):
    """Execute a Range-Intersects query: all (r, s) with r and s
    intersecting (Definition 3). ``executor`` shards the casting
    launches; ``None`` runs them on the calling thread."""
    tracer = getattr(index, "tracer", NULL_TRACER)
    q = queries.astype(index.dtype)
    if q.ndim != index.ndim:
        raise ValueError(f"expected {index.ndim}-D query rectangles")
    if q.is_degenerate().any():
        raise ValueError("query rectangles must not be degenerate")

    empty = np.empty(0, dtype=np.int64)
    live_ids = np.nonzero(~index._deleted)[0]
    n_s = len(q)
    if n_s == 0 or len(live_ids) == 0:
        phases = {
            "k_prediction": 0.0,
            "bvh_build": 0.0,
            "forward_cast": 0.0,
            "backward_cast": 0.0,
        }
        return empty, empty.copy(), phases, {"k": 1}

    # ---- Phase 1: multicast parameter prediction (Equations 3-5) --------
    k, k_sim = resolve_k(index, q, live_ids, k, tracer=tracer)

    # ---- Phase 2 + casting prep (query-side BVH, forward traversable,
    # replicated backward rays) -------------------------------------------
    ctx = IntersectsContext(index, q, k, tracer=tracer)

    # ---- Phase 3: forward casting (Algorithm 1) --------------------------
    fwd, _, f_shards = cast(
        index, "intersects.forward_cast", n_s, ctx.fwd_work, executor,
        index.total_nodes(), n_queries=n_s,
    )

    # ---- Phase 4: backward casting with Ray Multicast --------------------
    bwd, _, b_shards = cast(
        index, "intersects.backward_cast", ctx.m, ctx.bwd_work, executor,
        ctx.backward_nodes, n_rays=ctx.m, k=int(k),
    )

    rect_ids, query_ids, phases, meta = intersects_result(
        k, k_sim, ctx.bvh_build_sim, fwd, bwd, len(f_shards) + len(b_shards)
    )
    if handler is not None:
        handler.on_results(rect_ids, query_ids)
    return rect_ids, query_ids, phases, meta
