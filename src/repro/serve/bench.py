"""Serving workloads behind the ``serve`` section of the gate.

Two deterministic, simulated-time experiments, which
:mod:`repro.bench.gate` commits to ``BENCH_gate.json`` and checks:

- ``staged_batching`` stages identical requests before the scheduler
  starts, so unbatched and coalesced runs execute the same logical work
  and their sim-throughput ratio isolates launch-overhead amortization
  (one launch for B requests pays the fixed launch overhead once);
- ``process_scaling`` replays one mixed read/write session at each
  worker count (0 = in-process): the response digests must match
  bit-for-bit across counts while the simulated throughput scales with
  the worker pool (see :mod:`repro.serve.procpool`).

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


def run_process_scaling(
    *,
    n_rects: int = 40_000,
    n_steps: int = 4,
    requests_per_step: int = 16,
    queries_per_request: int = 2048,
    workers_list: tuple[int, ...] = (0, 2, 4),
    seed: int = 7,
) -> dict:
    """Deterministic staged scaling experiment for process-sharded serving.

    Replays one identical mixed read/write session — point-query waves
    with an insert after every other step — at each worker count. Every
    run executes the same logical work against the same epoch sequence,
    so two properties fall out:

    - the response digest (rect/query id pairs plus serving epoch, in
      submission order) must be identical across worker counts — process
      sharding may move simulated time but never an answer; and
    - the simulated-time ratio isolates the process-sharding win: one
      wave's cast work divides across workers, paying only the modeled
      dispatch tax (``PROC_DISPATCH_SIM_S`` / ``PROC_PAYLOAD_BYTE_SIM_S``
      in repro.perfmodel.calibration).

    ``max_batch == requests_per_step`` with a generous linger makes each
    step exactly one wave in every configuration, so the comparison is
    batching-invariant. The default size makes one wave's cast work
    (16 x 2048 rays against 40k rects) dominate the per-shard launch
    overhead and dispatch tax — the regime process sharding targets;
    overhead-bound micro-waves stay at one shard by design (see
    repro.parallel.executor.process_priced_shards).
    """
    import hashlib

    from repro.core.index import Predicate

    # Pre-generate the whole session once so every worker count replays
    # byte-identical payloads and mutations.
    rng = np.random.default_rng(seed)
    steps = []
    for step in range(n_steps):
        payloads = [
            (rng.random((queries_per_request, 2)) * 104.0).astype(np.float32)
            for _ in range(requests_per_step)
        ]
        ins = None
        if step % 2 == 0:
            lo = rng.random((20, 2)) * 100.0
            ins = Boxes(
                lo, lo + rng.random((20, 2)) * 3.0 + 0.05, dtype=np.float32
            )
        steps.append((payloads, ins))

    cells = {}
    for workers in sorted(set(workers_list)):
        config = ServiceConfig(
            max_queue_depth=max(64, 2 * requests_per_step),
            max_batch=requests_per_step,
            max_wait=0.05,  # linger long enough to coalesce each step's wave
            cache_size=0,  # no serve-cache: every request reaches the executor
            planner=None,
            workers=workers,
        )
        digest = hashlib.sha1()
        with SpatialQueryService(build_index(n_rects, seed), config) as svc:
            for payloads, ins in steps:
                futs = [
                    svc.submit(Predicate.CONTAINS_POINT, p) for p in payloads
                ]
                for fut in futs:
                    r = fut.result(timeout=600)
                    digest.update(np.ascontiguousarray(r.rect_ids).tobytes())
                    digest.update(np.ascontiguousarray(r.query_ids).tobytes())
                    digest.update(str(r.meta.get("epoch")).encode())
                if ins is not None:
                    svc.insert(ins)
            sim = float(svc.metrics.counters["serve.sim_time"])
        total = n_steps * requests_per_step * queries_per_request
        cells[workers] = {
            "workers": workers,
            "sim_time_s": sim,
            "sim_qps": total / sim if sim else 0.0,
            "digest": digest.hexdigest(),
        }

    out = {
        "n_rects": n_rects,
        "n_steps": n_steps,
        "requests_per_step": requests_per_step,
        "queries_per_request": queries_per_request,
        "writes": sum(1 for _, ins in steps if ins is not None),
        "cells": {str(w): c for w, c in cells.items()},
    }
    if 0 in cells:
        base = cells[0]
        out["bit_identical"] = all(
            c["digest"] == base["digest"] for c in cells.values()
        )
        for w, c in cells.items():
            if w and base["sim_qps"]:
                out[f"sim_speedup_workers{w}"] = c["sim_qps"] / base["sim_qps"]
    return out


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
            max_wait=0.0,
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
            sim = float(svc.metrics.counters["serve.sim_time"])
            cells[max_batch] = {
                "batches": int(svc.metrics.counters["serve.batches"]),
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

