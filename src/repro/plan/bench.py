"""Planner benchmark: planned vs static execution, per workload.

Runs a fixed matrix of workload cells — each predicate at a *small*
regime (tiny batches against a small index, where per-launch overhead
and the query-side BVH build dominate) and a *large* regime (big
batches against a big index). Every cell executes the identical batch
sequence twice:

- **static** — ``planner="off"``: the historical fixed-config RT path;
- **auto** — ``planner="auto"``: the planner, charged for every LBVH
  build it actually incurs (``backend_built_now``), under a
  tracer so each decision's ``plan.decide`` span is counted.

Everything is simulated time, seeded and Date-free, so the result is
machine-independent and exactly reproducible. Pair counts are asserted
equal between the two sides on every batch while running (the planner
must never change answers), and so is one ``plan.decide`` span per
planned batch. :mod:`repro.bench.gate` commits the matrix as the
``plan`` section of ``BENCH_gate.json`` and bounds it: decisions
identical, no cell more than 2% worse than static, geomean speedup at
least 1.3.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.index import Predicate, RTSIndex
from repro.geometry.boxes import Boxes
from repro.obs.tracer import Tracer

#: The benchmark matrix. Small cells: many tiny batches, where the RT
#: pipeline's fixed launch/build overheads matter most. Large cells: few
#: big batches. Points and contains stay on the RT pipeline (ratio 1.0
#: by construction — shard planning never moves simulated time); the
#: intersects cells route to the LBVH, whose one build amortizes
#: over the batch sequence.
CELLS = [
    dict(name="point-small", predicate="contains-point", n_rects=600,
         n_queries=8, n_batches=24, seed=101),
    dict(name="point-large", predicate="contains-point", n_rects=20_000,
         n_queries=2048, n_batches=4, seed=102),
    dict(name="contains-small", predicate="range-contains", n_rects=500,
         n_queries=8, n_batches=24, seed=103),
    dict(name="contains-large", predicate="range-contains", n_rects=20_000,
         n_queries=1024, n_batches=4, seed=104),
    dict(name="intersects-small", predicate="range-intersects", n_rects=800,
         n_queries=8, n_batches=24, seed=105),
    dict(name="intersects-large", predicate="range-intersects", n_rects=20_000,
         n_queries=1024, n_batches=4, seed=106),
]


def _data(rng: np.random.Generator, n: int, domain: float = 100.0) -> Boxes:
    lo = rng.random((n, 2)) * domain
    return Boxes(lo, lo + rng.random((n, 2)) * 1.5 + 0.05, dtype=np.float32)


def _payloads(rng: np.random.Generator, predicate: Predicate, n_queries: int,
              n_batches: int, domain: float = 100.0) -> list:
    out = []
    for _ in range(n_batches):
        if predicate is Predicate.CONTAINS_POINT:
            out.append((rng.random((n_queries, 2)) * domain).astype(np.float32))
        else:
            lo = rng.random((n_queries, 2)) * domain
            out.append(Boxes(lo, lo + rng.random((n_queries, 2)) * 2.0 + 0.05,
                             dtype=np.float32))
    return out


def run_cell(cell: dict) -> dict:
    """Execute one cell's batch sequence under both configurations."""
    predicate = Predicate(cell["predicate"])
    rng = np.random.default_rng(cell["seed"])
    data = _data(rng, cell["n_rects"])
    payloads = _payloads(rng, predicate, cell["n_queries"], cell["n_batches"])

    static_sim = 0.0
    static_pairs = []
    with RTSIndex(data, seed=cell["seed"]) as ix:
        for p in payloads:
            r = ix.query(predicate, p, planner="off")
            static_sim += r.sim_time
            static_pairs.append(len(r))

    auto_sim = 0.0
    auto_build = 0.0
    decisions = []
    tracer = Tracer()
    with RTSIndex(data, seed=cell["seed"], tracer=tracer) as ix:
        for i, p in enumerate(payloads):
            r = ix.query(predicate, p, planner="auto")
            auto_sim += r.sim_time
            if r.meta.get("backend_built_now"):
                auto_build += r.meta["backend_build_s"]
            decisions.append(r.meta["plan"]["backend"])
            if len(r) != static_pairs[i]:
                raise AssertionError(
                    f"{cell['name']} batch {i}: planned pair count {len(r)} != "
                    f"static {static_pairs[i]} — the planner changed answers"
                )
    plan_spans = sum(1 for s in tracer.spans() if s.name == "plan.decide")
    if plan_spans != len(payloads):
        raise AssertionError(
            f"{cell['name']}: {plan_spans} plan.decide spans for "
            f"{len(payloads)} planned batches"
        )

    auto_total = auto_sim + auto_build
    return {
        **{k: cell[k] for k in ("name", "predicate", "n_rects", "n_queries",
                                "n_batches", "seed")},
        "static_sim_s": static_sim,
        "auto_sim_s": auto_sim,
        "auto_build_s": auto_build,
        "auto_total_s": auto_total,
        "speedup": static_sim / auto_total if auto_total else 0.0,
        "decisions": decisions,
        "plan_spans": plan_spans,
        "total_pairs": int(sum(static_pairs)),
    }


def run_matrix() -> dict:
    rows = [run_cell(c) for c in CELLS]
    geomean = math.exp(
        sum(math.log(r["speedup"]) for r in rows) / len(rows)
    )
    return {"cells": rows, "geomean_speedup": geomean}

