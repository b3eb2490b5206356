"""Serving workloads behind the ``serve`` section of the gate.

One deterministic, simulated-time experiment, which
:mod:`repro.bench.gate` commits to ``BENCH_gate.json`` and checks:
``staged_batching`` stages identical requests before the scheduler
starts, so unbatched and coalesced runs execute the same logical work
and their sim-throughput ratio isolates launch-overhead amortization
(one launch for B requests pays the fixed launch overhead once).

Wall-clock throughput and latency under load are measured, gated and
oracle-checked by ``perfbench/run.py`` (workloads ``serve-read`` and
``serve-churn``).
"""

from __future__ import annotations

import numpy as np

from repro.core.index import RTSIndex
from repro.geometry.boxes import Boxes
from repro.serve.service import ServiceConfig, SpatialQueryService


def build_index(n_rects: int, seed: int, domain: float = 100.0) -> RTSIndex:
    rng = np.random.default_rng(seed)
    lo = rng.random((n_rects, 2)) * domain
    data = Boxes(lo, lo + rng.random((n_rects, 2)) * 3.0 + 0.05, dtype=np.float32)
    return RTSIndex(data, dtype=np.float32, seed=seed)


def run_staged(
    *,
    n_rects: int = 20_000,
    n_requests: int = 32,
    queries_per_request: int = 32,
    max_batches: tuple[int, ...] = (1, 16),
    seed: int = 7,
) -> dict:
    """Deterministic batching experiment: stage identical requests before
    starting the scheduler, so every configuration executes exactly the
    same logical work and the sim-throughput ratio isolates launch-overhead
    amortization, free of thread-timing noise."""
    from repro.core.index import Predicate

    rng = np.random.default_rng(seed)
    payloads = [
        rng.random((queries_per_request, 2)) * 104.0 for _ in range(n_requests)
    ]
    cells = {}
    for max_batch in sorted(set(max_batches)):
        config = ServiceConfig(
            max_queue_depth=max(64, 2 * n_requests),
            max_batch=max_batch,
            cache_size=0,
        )
        with SpatialQueryService(
            build_index(n_rects, seed), config, autostart=False
        ) as svc:
            futures = [
                svc.submit(Predicate.CONTAINS_POINT, p.astype(np.float32))
                for p in payloads
            ]
            svc.start()
            for fut in futures:
                fut.result()
            sim = float(svc.metrics.counter("serve.sim_time"))
            cells[max_batch] = {
                "batches": int(svc.metrics.counter("serve.batches")),
                "sim_time_s": sim,
                "sim_qps": n_requests * queries_per_request / sim if sim else 0.0,
            }
    out = {
        "n_requests": n_requests,
        "queries_per_request": queries_per_request,
        "cells": {str(b): c for b, c in cells.items()},
    }
    big = [b for b in cells if b >= 16]
    if 1 in cells and big:
        b = max(big)
        out["sim_speedup_batched_vs_unbatched"] = (
            cells[b]["sim_qps"] / cells[1]["sim_qps"]
        )
        out["max_batch"] = b
    return out

