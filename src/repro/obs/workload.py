"""The fixed counter workload behind the ``obs`` section of the gate.

The paper's evaluation (§6) stands on traversal counters — BVH nodes
visited, IS invocations, rays launched — and the simulated times the
performance model derives from them. Both are fully deterministic for a
fixed seed, so any change in them is a *semantic* change to the engine:
either an intended optimisation (rewrite the baseline in the same PR) or
a regression.

``run_fixed_workload()`` executes a small deterministic matrix of cases —
both builders, 2-D and 3-D, all three predicates, plus a mutation
sequence — and reports, per case, the emitted pair count, the counter
totals of every casting launch, and the per-phase simulated times.
:mod:`repro.bench.gate` commits the direct run to ``BENCH_gate.json``
and checks the same workload served through the service against it.
"""

from __future__ import annotations

import numpy as np


def _dataset(ndim: int, n: int, seed: int):
    from repro.geometry.boxes import Boxes

    rng = np.random.default_rng(seed)
    lo = rng.random((n, ndim)) * 100.0
    ext = rng.random((n, ndim)) * 4.0 + 0.05
    return Boxes(lo, lo + ext, dtype=np.float64)


def _queries(ndim: int, n: int, seed: int):
    from repro.geometry.boxes import Boxes

    rng = np.random.default_rng(seed)
    lo = rng.random((n, ndim)) * 100.0
    return Boxes(lo, lo + rng.random((n, ndim)) * 3.0 + 0.01, dtype=np.float64)


def _points(ndim: int, n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n, ndim)) * 104.0


def _case_record(result) -> dict:
    """Pair count, counter totals and sim times of one query result."""
    rec: dict = {
        "pairs": len(result),
        "phases": {k: float(v) for k, v in result.phases.items()},
    }
    for label, key in (
        ("counters", "stats"),
        ("counters_forward", "forward_stats"),
        ("counters_backward", "backward_stats"),
    ):
        totals = result.meta.get(key)
        if totals is not None:
            rec[label] = {k: int(v) for k, v in totals.items()}
    if "k" in result.meta:
        rec["k"] = int(result.meta["k"])
    return rec


def run_fixed_workload(via_service: bool = False) -> dict:
    """Execute the deterministic gate workload and report its counters.

    Kept small on purpose (a few thousand rectangles per case) so the
    gate runs in seconds; coverage comes from the case matrix, not
    volume.

    ``via_service`` routes every query and mutation through a
    :class:`~repro.serve.SpatialQueryService` (one sequential client, so
    execution order is admission order) instead of calling the index
    directly. The serving layer is contractually transparent — snapshot
    forks, batching and scatter must preserve pairs, counters and
    simulated times bit-for-bit — so both modes are compared against the
    *same* committed baseline.
    """
    from repro.core.index import Predicate, RTSIndex

    services = []

    def wrap(index):
        """The query/mutation handle for one case index."""
        if not via_service:
            return index
        from repro.serve import ServiceConfig, SpatialQueryService

        # The scheduler is work-conserving, so this sequential client's
        # requests each launch as soon as they are queued.
        # planner=None: the gate checks serving *transparency* against
        # the direct-index baseline, not planning policy — a planned
        # batch may legitimately answer on a baseline backend with
        # different (still exact) phase timings.
        # owner: appended to `services`; the finally below closes them.
        svc = SpatialQueryService(index, ServiceConfig(planner=None))
        services.append(svc)
        return svc

    def final_index(handle):
        return handle.snapshot() if via_service else handle

    cases: dict[str, dict] = {}

    def run_predicates(tag: str, handle, ndim: int) -> None:
        pts = _points(ndim, 800, seed=31)
        qs = _queries(ndim, 700, seed=37)
        cases[f"{tag}.point"] = _case_record(
            handle.query(Predicate.CONTAINS_POINT, pts)
        )
        cases[f"{tag}.contains"] = _case_record(
            handle.query(Predicate.RANGE_CONTAINS, qs)
        )
        cases[f"{tag}.intersects"] = _case_record(
            handle.query(Predicate.RANGE_INTERSECTS, qs)
        )

    try:
        # -- 2-D / 3-D, fast_build (the driver default) -------------------
        for ndim in (2, 3):
            idx = wrap(
                RTSIndex(
                    _dataset(ndim, 2500, seed=11 + ndim),
                    ndim=ndim,
                    dtype=np.float64,
                    seed=5,
                )
            )
            run_predicates(f"{ndim}d.fast_build", idx, ndim)

        # -- 2-D fast_trace (SAH builder drift coverage) -------------------
        idx_ft = wrap(
            RTSIndex(
                _dataset(2, 2500, seed=13),
                dtype=np.float64,
                seed=5,
                builder="fast_trace",
                leaf_size=2,
            )
        )
        run_predicates("2d.fast_trace", idx_ft, 2)

        # -- mutation sequence: insert → delete → update → rebuild ---------
        idx_mut = wrap(RTSIndex(_dataset(2, 1500, seed=17), dtype=np.float64, seed=5))
        idx_mut.insert(_dataset(2, 500, seed=19))
        idx_mut.delete(np.arange(0, 1000, 3))
        upd_ids = np.arange(0, 400, 2)
        idx_mut.update(upd_ids, _dataset(2, len(upd_ids), seed=23))
        run_predicates("2d.mutated", idx_mut, 2)
        idx_mut.rebuild()
        run_predicates("2d.rebuilt", idx_mut, 2)
        final_mut = final_index(idx_mut)
        cases["mutation.ops"] = {
            "op_log": [[r.op, int(r.count)] for r in final_mut.op_log],
            "sim_times": [float(r.sim_time) for r in final_mut.op_log],
            "live": int(final_mut.n_rects),
        }
    finally:
        for svc in services:
            svc.close()

    return {"cases": cases}

