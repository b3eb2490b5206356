"""Shared result record, statistics and the metric catalogue."""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
from dataclasses import dataclass, field

import numpy as np

#: End-to-end metrics (tracing off), reported by every workload.
#: Throughput (``capacity_qps``) is printed but not among them: it is
#: pure CPU time and follows the host's speed, which shifts by a third
#: from minute to minute (perfbench/NOTES.md, Steadiness).
END_TO_END = {
    "setup_s": "s",
    "point_ms": "ms",
    "contains_ms": "ms",
    "intersects_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run, reported by every workload (0
#: where a workload does not reach the layer). ``/op`` is per repetition
#: (batch-skew) or per request (serve-*).
PER_LAYER = {
    "rtcore.traverse_s": "s/op",
    "rtcore.nodes_visited": "count/op",
    "rtcore.is_invocations": "count/op",
    "rtcore.results_emitted": "count/op",
    "rtcore.ns_per_node": "ns",
    "rtcore.useful_ratio": "ratio",
    "rtcore.build_s": "s/op",
    "rtcore.self_s": "s/op",
    "core.k_prediction_s": "s/op",
    "core.bvh_build_s": "s/op",
    "core.forward_cast_s": "s/op",
    "core.backward_cast_s": "s/op",
    "core.point_cast_s": "s/op",
    "core.contains_cast_s": "s/op",
    "core.multicast_k": "k",
    "core.backward_share": "ratio",
    "core.self_s": "s/op",
    "parallel.shards": "count/op",
    "parallel.map_s": "s/op",
    "parallel.speedup": "ratio",
    "parallel.self_s": "s/op",
    "perfmodel.point_sim_s": "s/op",
    "perfmodel.contains_sim_s": "s/op",
    "perfmodel.intersects_sim_s": "s/op",
    "perfmodel.wall_over_sim": "ratio",
    "plan.decide_s": "s/op",
    "plan.rt_share": "ratio",
    "plan.baseline_s": "s/op",
    "plan.baseline_builds": "count/op",
    "plan.self_s": "s/op",
    "serve.admit_us": "us",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.scatter_s": "s/op",
    "serve.mean_batch": "requests",
    "serve.cache_hit_rate": "ratio",
    "serve.publish_ms": "ms",
    "serve.epochs": "count/op",
    "serve.rejected": "count/op",
    "serve.self_s": "s/op",
    "churn.compactions": "count/op",
    "churn.compact_s": "s/op",
    "churn.delta_batches": "count",
    "churn.drift_factor": "ratio",
    "churn.tombstone_share": "ratio",
    "churn.self_s": "s/op",
    "obs.trace_overhead": "ratio",
    "obs.traced_wall_s": "s/op",
    "obs.uncovered_s": "s/op",
    "obs.other_self_s": "s/op",
    "obs.spans": "count/op",
    "obs.ops": "count",
}


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    correct: bool
    #: name -> (value, unit): the gated end-to-end metrics.
    e2e: dict = field(default_factory=dict)
    #: name -> (value, unit): further end-to-end figures, printed only.
    report: dict = field(default_factory=dict)
    #: name -> value: per-layer metrics of the traced run.
    layers: dict = field(default_factory=dict)


def median(values) -> float:
    """Median; NaN for no samples (``run.py`` then refuses to report)."""
    return statistics.median(values) if len(values) else float("nan")


def tail(values, name: str) -> dict:
    """``{name}_p99_ms`` when at least ten samples lie beyond the p99;
    otherwise the highest whole percentile (p90 at least) with ten
    beyond it, named as such."""
    n = len(values)
    pct = min(99, math.floor(100 - 1000 / n)) if n else 0
    if pct < 90:
        return {}
    nearest_rank = math.ceil(pct / 100 * n)
    return {f"{name}_p{pct}_ms": (sorted(values)[nearest_rank - 1], f"ms (n={n})")}


def digest(rect_ids, query_ids) -> str:
    """SHA-1 of an answer's pairs (as int64). Answers are kept for the
    oracle as digests, so the memory they hold does not grow with the
    number of answers and ``peak_rss_mb`` measures the program."""
    h = hashlib.sha1(np.ascontiguousarray(rect_ids, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(query_ids, dtype=np.int64).tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
