"""Closed-form per-backend query-cost estimates (planner priors).

The planner (:mod:`repro.plan`) has to price a query batch on the RT
pipeline and on the LBVH baseline *before* running it, so it cannot
count real traversal work the way the simulator does. This module
provides the analytic priors: coarse closed-form estimates built from
the same calibration constants the platform models use, parameterised
by the only things known up front — live rectangle count, query count,
predicate — plus a selectivity prior for Range-Intersects.

The estimates are deliberately simple (no warp-max, no per-ray skew):
their job is to rank the two backends, not to predict absolute times
(RTSpatial's ``CalculateBestParallelism`` plans from the same kind of
coarse model; the paper's k predictor, Eq. 3, is the template for the
intersects economics reused here).

All estimates respect :func:`~repro.perfmodel.machine.machine_scale`, so
planner decisions land at the same workload shapes on a scaled-down
machine as at full scale.
"""

from __future__ import annotations

import numpy as np

from repro.core.multicast import predict_k
from repro.perfmodel import calibration as C
from repro.perfmodel.build import BuildModel
from repro.perfmodel.machine import machine_scale


def _log2(n: int) -> float:
    return float(np.log2(max(int(n), 2)))


def _gpu_seconds(total_ops: float) -> float:
    """One launch: op units through the GPU lane throughput plus the
    launch floor."""
    return total_ops / (C.GPU_LANE_THROUGHPUT * machine_scale()) + C.GPU_LAUNCH_OVERHEAD


def _cast_ops(n_rays: int, node_cost: float, n_prims: int) -> float:
    """Op units of one casting launch of ``n_rays`` rays into an
    ``n_prims``-primitive BVH, under the traversal priors."""
    nodes = C.PRIOR_NODES_PER_LEVEL * _log2(n_prims)
    per_ray = (
        node_cost * nodes
        + C.IS_OP * C.PRIOR_IS_PER_RAY
        + C.RESULT_OP * C.PRIOR_RESULTS_PER_QUERY
    )
    return n_rays * per_ray


def rt_cast_cost(n_queries: int, n_prims: int) -> float:
    """One hardware-traversal launch (point / Range-Contains shape)."""
    return _gpu_seconds(_cast_ops(n_queries, C.RT_NODE_OP, n_prims))


def rt_intersects_cost(
    n_queries: int, n_prims: int, *, w: float = 0.99
) -> tuple[float, dict]:
    """Estimated cost of the four-phase RT Range-Intersects pipeline.

    Prices the paper's forward/backward economics: the forward pass casts
    ``|S|`` diagonal rays into the data BVH; the backward pass casts
    ``|R|·k`` replicated anti-diagonal rays into the query-side BVH, with
    k chosen by Eq. 3 exactly as the in-query predictor would for the
    prior selectivity. Returns ``(seconds, detail)`` where ``detail``
    carries the predicted k and the forward/backward op split (the cast
    *emphasis* the planner records with its decision).
    """
    est_total = C.PRIOR_INTERSECTS_SELECTIVITY * n_prims * n_queries
    k = predict_k(n_queries, n_prims, est_total, w=w)
    fwd_ops = _cast_ops(n_queries, C.RT_NODE_OP, n_prims)
    # Backward rays: every live rect, replicated k-fold; multicast caps
    # per-thread intersection work at ~total/k.
    bwd_rays = n_prims * k
    bwd_ops = (
        bwd_rays * C.RT_NODE_OP * C.PRIOR_NODES_PER_LEVEL * _log2(n_queries)
        + C.IS_OP * est_total
        + C.RESULT_OP * est_total
    )
    # k-prediction trial run: a fixed-size sample-vs-sample sweep.
    sample = 512
    k_pred = _gpu_seconds(sample * sample * C.IS_OP / 3.0)
    bvh_build = BuildModel.optix_gas_build(n_queries)
    total = k_pred + bvh_build + _gpu_seconds(fwd_ops) + _gpu_seconds(bwd_ops)
    detail = {
        "k": int(k),
        "forward_ops": float(fwd_ops),
        "backward_ops": float(bwd_ops),
        "bvh_build_s": float(bvh_build),
    }
    return total, detail


def lbvh_query_cost(n_queries: int, n_prims: int) -> float:
    """Software-GPU BVH cost: same traversal shape as the RT estimate but
    at the software per-visit op cost plus the memory-hierarchy ramp."""
    n_nodes = 2 * max(int(n_prims), 1)
    node_cost = C.SW_NODE_OP
    cache_nodes = C.SW_CACHE_NODES * machine_scale()
    if n_nodes > cache_nodes:
        factor = 1.0 + C.SW_CACHE_RAMP * np.log2(n_nodes / cache_nodes)
        node_cost *= min(factor, C.SW_CACHE_MAX)
    return _gpu_seconds(_cast_ops(n_queries, node_cost, n_prims))

