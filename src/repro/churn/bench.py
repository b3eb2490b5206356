"""Churn benchmark: write absorption and read latency under sustained
mutation, with drift-triggered compaction.

Two workloads, which :mod:`repro.bench.gate` runs as the ``churn``
section of ``BENCH_gate.json``:

- **staged** — a deterministic, simulated-time churn loop. One
  :class:`~repro.churn.ChurnIndex` absorbs a scripted tombstone-heavy
  mutation trace (the safety caps — delta ratio, refit wear — are set
  unreachable, so the ONLY way a compaction can fire is the priced
  counter-drift trigger evaluated by :meth:`maybe_compact` after each
  read wave). A plain :class:`~repro.core.index.RTSIndex` mirror replays
  the identical trace through the refit path, pricing the write side of
  the LSM trade: the mirror pays a GAS refit per touched batch, the
  churn index tombstones main-resident deletes for free. Every number is
  simulated and seeded, so the gate commits this section and checks it
  bit-for-bit (same compaction rounds, same trigger evidence, same
  times).

- **concurrent** — the same drift-only policy behind a real
  :class:`~repro.serve.SpatialQueryService` with the
  :class:`~repro.churn.BackgroundCompactor` polling. Reader waves drive
  the drift EWMAs (reads ARE the sensor) until the compactor fires and
  publishes a compacted epoch while reads keep flowing. Its timing
  depends on the machine, so it is never committed; the gate checks its
  invariants only.
"""

from __future__ import annotations

import time

import numpy as np

from repro.churn import ChurnConfig, ChurnIndex
from repro.core.index import RTSIndex
from repro.geometry.boxes import Boxes

#: The drift-only trigger policy both workloads run: safety caps out of
#: reach, so every compaction these workloads see is a priced counter-drift
#: decision — the property the gate exists to protect.
DRIFT_ONLY = dict(
    delta_ratio_max=1e9,
    refit_wear_max=10**9,
    drift_threshold=1.10,
    min_observations=3,
    horizon=500_000,
)


def _boxes(rng: np.random.Generator, n: int, domain: float = 100.0) -> Boxes:
    lo = rng.random((n, 2)) * domain
    return Boxes(lo, lo + rng.random((n, 2)) * 1.5 + 0.05, dtype=np.float32)


def run_staged(
    *,
    n_rects: int = 8_000,
    n_rounds: int = 12,
    delete_per_round: int = 480,
    insert_per_round: int = 60,
    queries_per_wave: int = 256,
    seed: int = 11,
) -> dict:
    """The deterministic churn loop (see module docstring).

    Each round: delete a contiguous slice of the original main structure
    (tombstones — the drift source), insert a small batch (delta
    fan-out), run one point-query wave over a fixed payload (feeding the
    drift EWMAs), then ``maybe_compact()``. The identical trace replays
    against a plain refit-path mirror for the write-cost comparison;
    pair counts are asserted equal on every wave while running.
    """
    rng = np.random.default_rng(seed)
    data = _boxes(rng, n_rects)
    pts = (rng.random((queries_per_wave, 2)) * 104.0).astype(np.float32)
    churn = ChurnConfig(**DRIFT_ONLY)
    # owner: serial bench indexes, no pool refs; dropped with the frame
    ix = ChurnIndex(data, dtype=np.float32, seed=seed, churn=churn)
    mirror = RTSIndex(data, dtype=np.float32, seed=seed)  # owner: ditto

    # Clean-baseline wave: the drift EWMAs compare every later (dirty)
    # observation against the traversal quality recorded here.
    ix.query_points(pts)

    rounds = []
    compactions = []
    next_pub = n_rects
    for r in range(n_rounds):
        lo = r * delete_per_round
        dead = np.arange(lo, lo + delete_per_round)
        ins = _boxes(rng, insert_per_round)

        ix.delete(dead)
        churn_delete_s = ix.last_op.sim_time
        ids = ix.insert(ins)
        churn_write_s = churn_delete_s + ix.last_op.sim_time
        assert ids[0] == next_pub  # public ids stay dense under churn
        next_pub += insert_per_round

        mirror.delete(dead)
        mirror_delete_s = mirror.last_op.sim_time
        mirror.insert(ins)
        mirror_write_s = mirror_delete_s + mirror.last_op.sim_time

        res = ix.query_points(pts)
        ref = mirror.query_points(pts)
        if len(res) != len(ref):
            raise AssertionError(
                f"round {r}: churn pair count {len(res)} != mirror {len(ref)}"
            )
        summary = ix.maybe_compact()
        if summary is not None:
            compactions.append({"round": r, **summary})
        rounds.append(
            {
                "round": r,
                "live": ix.n_rects,
                "delta_fraction": ix.delta_fraction(),
                "drift_factor": ix.rt_traversal_factor(),
                "churn_write_s": churn_write_s,
                "mirror_write_s": mirror_write_s,
                "churn_delete_s": churn_delete_s,
                "mirror_delete_s": mirror_delete_s,
                "read_wave_s": res.sim_time,
                "read_per_query_us": res.sim_time / queries_per_wave * 1e6,
                "pairs": len(res),
                "compacted": summary is not None,
            }
        )

    churn_total = sum(r["churn_write_s"] for r in rounds)
    mirror_total = sum(r["mirror_write_s"] for r in rounds)
    drifted_peak = max(r["read_per_query_us"] for r in rounds)
    post = [r["read_per_query_us"] for r in rounds if r["compacted"]]
    return {
        "n_rects": n_rects,
        "n_rounds": n_rounds,
        "delete_per_round": delete_per_round,
        "insert_per_round": insert_per_round,
        "queries_per_wave": queries_per_wave,
        "seed": seed,
        "policy": DRIFT_ONLY,
        "rounds": rounds,
        "compactions": compactions,
        "write_sim_s_churn": churn_total,
        "write_sim_s_mirror": mirror_total,
        "write_sim_speedup": mirror_total / churn_total if churn_total else 0.0,
        # The LSM headline: a main-resident delete is a tombstone (no
        # refit), so the churn side's delete bill is (near) zero while
        # the mirror re-prices a refit of every touched GAS.
        "delete_sim_s_churn": sum(r["churn_delete_s"] for r in rounds),
        "delete_sim_s_mirror": sum(r["mirror_delete_s"] for r in rounds),
        "read_per_query_us_peak": drifted_peak,
        "read_per_query_us_post_compaction": min(post) if post else None,
    }


def run_concurrent(
    *,
    n_rects: int = 4_000,
    queries_per_wave: int = 200,
    delete_fraction: float = 0.7,
    deadline_s: float = 60.0,
    seed: int = 12,
) -> dict:
    """Drift-triggered compaction behind the real serving stack.

    A clean read wave seeds the baseline EWMAs; a tombstone-heavy delete
    then degrades traversal quality; reader waves keep flowing until the
    background compactor prices the observed drift above a rebuild and
    publishes a compacted epoch. Reported: the structural facts the
    gate checks (how many compactions, the trigger evidence, reads
    before publication, answers across it).
    """
    from repro.serve import ServiceConfig, SpatialQueryService

    rng = np.random.default_rng(seed)
    # owner: the service below; close() releases every published snapshot
    seed_index = RTSIndex(_boxes(rng, n_rects), dtype=np.float32, seed=seed)
    pts = (rng.random((queries_per_wave, 2)) * 104.0).astype(np.float32)
    churn = ChurnConfig(**DRIFT_ONLY, poll_interval=0.001)
    config = ServiceConfig(churn=churn, cache_size=0)

    with SpatialQueryService(seed_index, config) as svc:
        svc.query_points(pts)  # clean baseline observation
        svc.delete(np.arange(int(n_rects * delete_fraction)))
        reads_before = 1
        deadline = time.monotonic() + deadline_s
        last_pre = None
        while svc.compactor.n_compactions == 0 and time.monotonic() < deadline:
            last_pre = svc.query_points(pts)
            reads_before += 1
        fired = svc.compactor.n_compactions
        summary = svc.compactor.last_summary
        after = svc.query_points(pts)
        stable = (
            last_pre is not None and last_pre.pair_set() == after.pair_set()
        )
        return {
            "n_rects": n_rects,
            "delete_fraction": delete_fraction,
            "queries_per_wave": queries_per_wave,
            "seed": seed,
            "compactions": fired,
            "trigger": (summary or {}).get("trigger"),
            "compacted_epoch": (summary or {}).get("epoch"),
            "reads_before_compaction": reads_before,
            "read_epoch_after": after.meta["epoch"],
            "answers_stable_across_compaction": bool(stable),
        }

