"""Figure 10: index construction and update behaviour.

(a) construction time across datasets for {Boost, GLIN, LBVH, LibRTS};
(b) insertion/deletion throughput by batch size (1K -> 1M);
(c) query slowdown of a refit BVH vs a freshly built one, as the update
    ratio grows (EUParks; move / enlarge / shrink updates).

Paper shapes: GLIN builds cheapest at scale; LBVH beats LibRTS only on
the smallest dataset, LibRTS 3.7-4.5x faster on the large ones. For a 1K
batch LibRTS sustains ~1.4M inserts/s and ~49.5M deletes/s, improving
with batch size. Point and Range-Contains queries slow down sharply with
update ratio (up to ~2.4x) and then *plateau*; Range-Intersects barely
degrades.
"""

from __future__ import annotations

import numpy as np

from repro.bench.config import BenchConfig
from repro.bench.runner import FigureResult, register
from repro.bench.experiments.common import dataset, librts_index
from repro.churn import ChurnIndex
from repro.core.index import RTSIndex
from repro.datasets import contains_queries, intersects_queries, point_queries
from repro.geometry.boxes import Boxes
from repro.perfmodel.build import BuildModel


@register("fig10a")
def fig10a(config: BenchConfig) -> FigureResult:
    result = FigureResult(
        figure="Fig 10(a)",
        title="index construction time",
        columns=["Boost", "GLIN", "LBVH", "LibRTS"],
        expectation="GLIN cheap; LBVH wins on USCounty only; LibRTS 3.7-4.5x faster at scale",
    )
    for name in config.datasets():
        data = dataset(config, name)
        n = len(data)
        result.add_row(
            name,
            {
                "Boost": BuildModel.rtree_build(n) * 1e3,
                "GLIN": BuildModel.glin_build(n) * 1e3,
                "LBVH": BuildModel.lbvh_build(n) * 1e3,
                "LibRTS": BuildModel.optix_gas_build(n) * 1e3,
            },
        )
    return result


@register("fig10b")
def fig10b(config: BenchConfig) -> FigureResult:
    result = FigureResult(
        figure="Fig 10(b)",
        title="insert/delete throughput by batch size",
        columns=["insert_Mps", "delete_Mps"],
        unit="M rects/s",
        expectation="~1.4M inserts/s and ~49.5M deletes/s at 1K; grows with batch size",
    )
    rng = np.random.default_rng(config.seed + 5)
    for batch_full in (1_000, 10_000, 100_000, 1_000_000):
        batch = config.n(batch_full, floor=100)
        # owner: serial bench index, no pool refs; dropped per iteration
        idx = RTSIndex(ndim=2, dtype=np.float32)
        n_batches = 16
        insert_time = 0.0
        all_ids = []
        for _ in range(n_batches):
            mins = rng.random((batch, 2))
            ext = rng.random((batch, 2)) * 0.01
            ids = idx.insert(Boxes(mins, mins + ext))
            insert_time += idx.last_op.sim_time
            all_ids.append(ids)
        delete_time = 0.0
        for ids in all_ids:
            idx.delete(ids)
            delete_time += idx.last_op.sim_time
        # Simulated times are full-machine-equivalent, so throughput is
        # reported against the full-scale batch sizes.
        total_full = batch_full * n_batches
        result.add_row(
            f"{batch_full // 1000}K",
            {
                "insert_Mps": total_full / insert_time / 1e6,
                "delete_Mps": total_full / delete_time / 1e6,
            },
        )
    result.notes.append("throughput averaged over 16 consecutive batches")
    return result


def _mutate(data: Boxes, ids: np.ndarray, rng: np.random.Generator) -> Boxes:
    """The paper's update mix: move along x/y, enlarge up to 10x, shrink
    towards zero — one third each."""
    mins = data.mins[ids].astype(np.float64)
    maxs = data.maxs[ids].astype(np.float64)
    centers = 0.5 * (mins + maxs)
    half = 0.5 * (maxs - mins)
    n = len(ids)
    kind = rng.integers(0, 3, size=n)
    move = rng.uniform(-0.15, 0.15, size=(n, 2)) * (kind == 0)[:, None]
    scale = np.ones(n)
    scale[kind == 1] = rng.uniform(1.0, 10.0, size=int((kind == 1).sum()))
    scale[kind == 2] = rng.uniform(1e-3, 0.5, size=int((kind == 2).sum()))
    centers = centers + move
    half = half * scale[:, None]
    return Boxes(centers - half, centers + half)


@register("fig10c")
def fig10c(config: BenchConfig) -> FigureResult:
    result = FigureResult(
        figure="Fig 10(c)",
        title="query slowdown vs update ratio (refit BVH / fresh BVH), EUParks",
        columns=[
            "point",
            "range_contains",
            "range_intersects",
            "churn_point",
            "churn_point_compacted",
        ],
        unit="x slowdown",
        expectation="point/contains degrade then plateau; intersects barely degrades",
    )
    data = dataset(config, "EUParks")
    n_q = config.n(10_000)
    pts = point_queries(data, n_q, seed=config.seed + 6)
    qc = contains_queries(data, n_q, seed=config.seed + 6)
    qi = intersects_queries(
        data, config.n(1_000), config.selectivity(0.001), seed=config.seed + 6
    )
    rng = np.random.default_rng(config.seed + 6)

    for ratio in (0.0002, 0.002, 0.02, 0.2):
        idx = librts_index(data)
        n_upd = max(1, int(len(data) * ratio))
        ids = rng.choice(len(data), size=n_upd, replace=False)
        moved = _mutate(data, ids, rng)
        idx.update(ids, moved)
        t_point = idx.query_points(pts).sim_time
        t_contains = idx.query_contains(qc).sim_time
        t_intersects = idx.query_intersects(qi).sim_time
        # The same trace absorbed by the LSM-style delta index: the main
        # GAS is never refit (old slots tombstone, new ones land in the
        # delta), so its slowdown is the read tax a compaction in
        # repro.churn pays off.
        # owner: serial bench index, no pool refs; dropped per iteration
        cix = ChurnIndex(data, dtype=np.float32)
        cix.update(np.asarray(ids), moved)
        c_point = cix.query_points(pts).sim_time
        cix.compact()
        cc_point = cix.query_points(pts).sim_time
        # The freshly built reference: same coordinates, rebuilt topology.
        idx.rebuild()
        f_point = idx.query_points(pts).sim_time
        f_contains = idx.query_contains(qc).sim_time
        f_intersects = idx.query_intersects(qi).sim_time
        result.add_row(
            f"{ratio:.2%}",
            {
                "point": t_point / f_point,
                "range_contains": t_contains / f_contains,
                "range_intersects": t_intersects / f_intersects,
                "churn_point": c_point / f_point,
                "churn_point_compacted": cc_point / f_point,
            },
        )
    result.notes.append(
        "churn_point: same update trace absorbed by repro.churn.ChurnIndex "
        "(tombstones + delta GAS, main never refit); churn_point_compacted: "
        "after folding the delta back in — the recovery a compaction buys"
    )
    return result
