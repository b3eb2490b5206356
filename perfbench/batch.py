"""Workload ``batch-skew``: direct ``RTSIndex`` batches on skewed data.

A direct index (no service, planner off, read-only) over 50k Spider
``gaussian`` rectangles, sharded over two worker threads. One repetition
runs a 10k point batch, a 5k contains batch and a 2k intersects batch at
0.1% selectivity, where the cost model picks multicast k=4. Traversal
(``rtcore``), the multicast backward cast (``core``) and the thread-pool
executor (``parallel``) carry almost all of the wall time; serve, plan
and churn are bypassed. It is read-only because refit-path updates make
later repetitions slower, which would make medians meaningless.
"""

from __future__ import annotations

import time

import numpy as np

import inputs
import tracing
from common import Outcome, digest, median, peak_rss_mb
from oracle import Oracle
from repro import RTSIndex
from repro.geometry.boxes import Boxes
from repro.obs import Tracer

N_RECTS = 50_000
N_POINT, N_CONTAINS, N_INTERSECTS = 10_000, 5_000, 2_000
SELECTIVITY = 0.001
N_WORKERS = 2
#: Set-ups before the timed repetitions; one more follows every
#: repetition, so ``setup_s``, their median, samples the whole run (the
#: host's speed drifts over tens of seconds).
SETUPS = 3
#: Queries per predicate in the set-up's warm-up batches.
WARM = 64
KINDS = ("point", "contains", "intersects")
#: Repetitions of the traced pass (the first one warms up).
TRACED_REPS = 3


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    mins, maxs = inputs.rects("gaussian", N_RECTS, rng)
    side = inputs.intersecting_side(mins, maxs, SELECTIVITY, rng)
    return {
        "mins": mins,
        "maxs": maxs,
        "point": inputs.points(mins, maxs, N_POINT, rng),
        "contains": inputs.contained(mins, maxs, N_CONTAINS, rng),
        "intersects": inputs.intersecting(mins, maxs, N_INTERSECTS, side, rng),
    }


def _run_batch(index, kind: str, payload):
    if kind == "point":
        return index.query_points(payload)
    boxes = Boxes(*payload)
    if kind == "contains":
        return index.query_contains(boxes)
    return index.query_intersects(boxes)


def build(data: dict, seed: int, tracer=None):
    """Set-up: build the index and answer one small batch per predicate."""
    index = RTSIndex(
        Boxes(data["mins"], data["maxs"]),
        parallel=True,
        n_workers=N_WORKERS,
        seed=seed,
        tracer=tracer,
    )
    for kind in KINDS:
        payload = data[kind]
        warm = payload[:WARM] if kind == "point" else (payload[0][:WARM], payload[1][:WARM])
        _run_batch(index, kind, warm)
    return index


def timed_setup(data: dict, seed: int, setups: list) -> None:
    """One set-up, timed into ``setups`` and closed again."""
    start = time.perf_counter()
    index = build(data, seed)
    setups.append(time.perf_counter() - start)
    index.close()


def measure(index, data: dict, seconds: float, reps: int | None = None, between=None) -> dict:
    """Repetitions until ``seconds`` have passed (or exactly ``reps``);
    the first is a warm-up excluded from the medians. ``between``, if
    given, is called after every repetition, outside its timing. Returns
    per-kind batch walls, digests of every batch and the sim time of
    each kind."""
    walls = {kind: [] for kind in KINDS}
    digests = {kind: [] for kind in KINDS}
    rep_walls, sims, errors = [], {}, 0
    t0 = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        for kind in KINDS:
            start = time.perf_counter()
            try:
                result = _run_batch(index, kind, data[kind])
            except Exception as err:  # counted as failed, the run goes on
                print(f"batch-skew: {kind} batch failed: {err!r}")
                errors += 1
                digests[kind].append(None)
                continue
            walls[kind].append(time.perf_counter() - start)
            digests[kind].append(digest(result.rect_ids, result.query_ids))
            sims[kind] = result.sim_time
        rep_walls.append(time.perf_counter() - rep_start)
        done = len(rep_walls) >= reps if reps else time.perf_counter() - t0 >= seconds
        if done:
            break
        if between is not None:
            between()
    return {
        "walls": walls,
        "rep_walls": rep_walls,
        "digests": digests,
        "sims": sims,
        "errors": errors,
        "t0": t0,
        "t1": time.perf_counter(),
    }


def check(data: dict, digests: dict) -> int:
    """Compare every batch's digest with the oracle's; returns mismatches."""
    oracle = Oracle(np.arange(N_RECTS), data["mins"], data["maxs"])
    mismatches = 0
    for kind in KINDS:
        want = digest(*oracle.answer(kind, data[kind]))
        bad = sum(1 for d in digests[kind] if d is not None and d != want)
        if bad:
            print(f"batch-skew: {bad} {kind} batches differ from the oracle")
        mismatches += bad
    return mismatches


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir) -> Outcome:
    data = make_inputs(seed)
    setups = []
    for _ in range(SETUPS - 1):
        timed_setup(data, seed, setups)
    start = time.perf_counter()
    index = build(data, seed)
    setups.append(time.perf_counter() - start)
    try:
        # A traced run gives half its time to the untraced pass; the
        # traced pass runs a fixed number of repetitions.
        run_ = measure(index, data, seconds / 2 if trace else seconds,
                       between=lambda: timed_setup(data, seed, setups))
    finally:
        index.close()
    rss = peak_rss_mb()
    mismatches = check(data, run_["digests"])
    n_batches = sum(len(d) for d in run_["digests"].values())
    outcome = Outcome(
        attempted=n_batches,
        failed=run_["errors"] + mismatches,
        correct=mismatches == 0 and run_["errors"] == 0,
    )
    walls = {kind: run_["walls"][kind][1:] or run_["walls"][kind] for kind in KINDS}
    reps = run_["rep_walls"][1:] or run_["rep_walls"]
    sizes = {"point": N_POINT, "contains": N_CONTAINS, "intersects": N_INTERSECTS}
    outcome.e2e = {
        "setup_s": (median(setups), "s"),
        "point_ms": (median(walls["point"]) * 1e3, "ms"),
        "contains_ms": (median(walls["contains"]) * 1e3, "ms"),
        "intersects_ms": (median(walls["intersects"]) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    outcome.report = {
        "capacity_qps": (sum(sizes.values()) / median(reps), "1/s"),
        **{f"{kind}_qps": (sizes[kind] / median(walls[kind]), "1/s") for kind in KINDS},
        "failed_frac": (outcome.failed / max(outcome.attempted, 1), "ratio"),
        "repetitions": (len(run_["rep_walls"]), "count"),
        "setups": (len(setups), "count"),
    }
    if trace:
        outcome.layers = traced(data, seed, median(reps), out_dir)
    return outcome


def traced(data: dict, seed: int, untraced_rep_s: float, out_dir) -> dict:
    """The traced pass: a fresh index with a ``Tracer`` installed, every
    public entry point wrapped, and a fixed number of repetitions, so
    counters and simulated times per repetition repeat exactly."""
    tracer = Tracer()
    index = build(data, seed, tracer=tracer)
    tracer.clear()
    try:
        with tracing.instrumented(tracer):
            run_ = measure(index, data, 0.0, reps=TRACED_REPS)
    finally:
        index.close()
    t0, t1 = run_["t0"], run_["t1"]
    roots = tracing.spans_in(tracer, t0, t1)
    ops = len(run_["rep_walls"])
    layers, self_s = tracing.layer_metrics(roots, t0, t1, ops)
    reps = run_["rep_walls"][1:] or run_["rep_walls"]
    layers["obs.trace_overhead"] = median(reps) / untraced_rep_s - 1.0
    # One repetition's simulated times, not a sum divided by the count,
    # so they repeat bit for bit between runs.
    for kind in KINDS:
        layers[f"perfmodel.{kind}_sim_s"] = run_["sims"][kind]
    tracing.export(out_dir / "trace.json", "batch-skew", seed, roots, t0, t1, layers, self_s)
    return layers
