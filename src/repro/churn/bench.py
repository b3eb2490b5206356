"""Churn benchmark: write absorption and read cost under sustained
mutation, with structure-triggered compaction.

:func:`run_staged` is the ``churn`` section of ``BENCH_gate.json``
(:mod:`repro.bench.gate`): a deterministic, simulated-time churn loop.
One :class:`~repro.churn.ChurnIndex` on the default
:class:`~repro.churn.ChurnConfig` absorbs a scripted tombstone-heavy
mutation trace, and :meth:`~repro.churn.ChurnIndex.maybe_compact` runs
after each round, so compactions fire where the delta-ratio or
refit-wear trigger says. A plain :class:`~repro.core.index.RTSIndex`
mirror replays the identical trace through the refit path, pricing the
write side of the LSM trade: the mirror pays a GAS refit per touched
batch, the churn index tombstones main-resident deletes for free. Every
number is simulated and seeded, so the gate commits this section and
checks it bit-for-bit (same compaction rounds, same trigger evidence,
same times).
"""

from __future__ import annotations

import numpy as np

from repro.churn import ChurnIndex
from repro.core.index import RTSIndex
from repro.geometry.boxes import Boxes


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
    (tombstones), insert a small batch (delta fan-out), run one
    point-query wave over a fixed payload, then ``maybe_compact()``. The
    identical trace replays against a plain refit-path mirror for the
    write-cost comparison; pair counts are asserted equal on every wave
    while running.
    """
    rng = np.random.default_rng(seed)
    data = _boxes(rng, n_rects)
    pts = (rng.random((queries_per_wave, 2)) * 104.0).astype(np.float32)
    # owner: serial bench indexes, no pool refs; dropped with the frame
    ix = ChurnIndex(data, dtype=np.float32, seed=seed)
    mirror = RTSIndex(data, dtype=np.float32, seed=seed)  # owner: ditto

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
