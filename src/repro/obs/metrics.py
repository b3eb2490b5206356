"""Metrics registry: counters, gauges and histograms over query work.

The registry is the machine-readable face of the observability layer:
where :mod:`repro.obs.tracer` answers "what did *this* launch do",
the registry accumulates across a session — total rays cast, total BVH
node visits, distributions of per-ray work — and exports to JSON or CSV
so every experiment leaves an artifact a regression gate (or a human
with a plotting script) can consume.

Histograms use power-of-two buckets, the natural scale for traversal
work: a ray visiting 2x the nodes costs ~1 extra BVH level. Buckets are
``value <= 2^i``; an explicit ``inf`` bucket catches the tail.
"""

from __future__ import annotations

import csv
import json
from typing import Any

import numpy as np

from repro.lockorder import make_lock

#: Histogram bucket upper bounds: 1, 2, 4, ... 2^20, then +inf.
_BUCKET_POWERS = 21


def _bucket_edges() -> list[float]:
    return [float(1 << i) for i in range(_BUCKET_POWERS)] + [float("inf")]


class Histogram:
    """Power-of-two bucketed distribution with count/sum/min/max."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets = np.zeros(_BUCKET_POWERS + 1, dtype=np.int64)
        self.count = 0
        self.total = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, values) -> None:
        """Fold an array (or scalar) of observations into the histogram."""
        arr = np.atleast_1d(np.asarray(values))
        if arr.size == 0:
            return
        # Bucket i holds values in (2^(i-1), 2^i]; values <= 1 land in
        # bucket 0, values above the last edge in the inf bucket.
        clipped = np.maximum(arr.astype(np.float64), 1.0)
        idx = np.ceil(np.log2(clipped)).astype(np.int64)
        idx = np.clip(idx, 0, _BUCKET_POWERS)
        self.buckets += np.bincount(idx, minlength=_BUCKET_POWERS + 1)
        self.count += int(arr.size)
        self.total += int(arr.sum())
        lo, hi = float(arr.min()), float(arr.max())
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (0..1) from the bucket
        counts: the upper edge of the bucket holding the rank, clipped to
        the observed min/max. Conservative (never under-reports) at
        power-of-two resolution — the right bias for tail latencies."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, int(np.ceil(q * self.count)))
        cum = np.cumsum(self.buckets)
        i = int(np.searchsorted(cum, rank))
        edges = _bucket_edges()
        hi = self.max if self.max is not None else 0.0
        if i >= len(edges) - 1:
            return float(hi)
        return float(min(max(edges[i], self.min or 0.0), hi))

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": int(self.count),
            "sum": int(self.total),
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "bucket_le": _bucket_edges(),
            "bucket_counts": self.buckets.tolist(),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms, with JSON/CSV export.

    Thread-safe: query shards may record concurrently. All mutation is
    monotonic (counters only grow), so export during use is consistent
    enough for reporting.
    """

    def __init__(self):
        # Rank 40 (leaf): any subsystem may record a metric while
        # holding its own lock; recording never calls back out.
        self._lock = make_lock("obs.metrics")
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name``."""
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, values) -> None:
        """Fold observations into histogram ``name`` (created empty)."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            # The fold itself must stay under the lock: Histogram.observe
            # is a read-modify-write of buckets/count/total, and two
            # shards folding concurrently would lose updates (caught by
            # RTS007 and the REPRO_TSAN=1 sanitizer).
            hist.observe(values)

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry into this one (counters add,
        gauges take the other's latest, histograms fold together)."""
        with self._lock:
            for k, v in other.counters.items():
                self.counters[k] = self.counters.get(k, 0) + v
            self.gauges.update(other.gauges)
            for k, h in other.histograms.items():
                mine = self.histograms.get(k)
                if mine is None:
                    mine = self.histograms[k] = Histogram()
                mine.buckets += h.buckets
                mine.count += h.count
                mine.total += h.total
                for attr, fn in (("min", min), ("max", max)):
                    theirs = getattr(h, attr)
                    ours = getattr(mine, attr)
                    if theirs is not None:
                        setattr(mine, attr, theirs if ours is None else fn(ours, theirs))

    def clear(self) -> None:
        with self._lock:
            self.counters = {}
            self.gauges = {}
            self.histograms = {}

    # -- locked accessors --------------------------------------------------

    def counter(self, name: str, default: int | float = 0) -> int | float:
        """Counter ``name`` read under the lock (0 when absent)."""
        with self._lock:
            return self.counters.get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Gauge ``name`` read under the lock."""
        with self._lock:
            return self.gauges.get(name, default)

    def quantile(self, name: str, q: float, default: float = 0.0) -> float:
        """Quantile of histogram ``name``, computed under the lock (the
        estimate walks buckets/count mid-read otherwise)."""
        with self._lock:
            hist = self.histograms.get(name)
            return hist.quantile(q) if hist is not None else default

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "counters": {k: self.counters[k] for k in sorted(self.counters)},
                "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
                "histograms": {
                    k: self.histograms[k].to_dict()
                    for k in sorted(self.histograms)
                },
            }

    def to_json(self, path=None, indent: int = 2) -> str:
        text = json.dumps(self.as_dict(), indent=indent)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def to_csv(self, path) -> None:
        """Flat ``kind,name,field,value`` rows — trivially greppable and
        spreadsheet-loadable. Rows come from one locked
        :meth:`as_dict` snapshot, so a concurrent recorder can't tear a
        histogram between its count row and its bucket rows."""
        data = self.as_dict()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "name", "field", "value"])
            for name, value in data["counters"].items():
                writer.writerow(["counter", name, "value", value])
            for name, value in data["gauges"].items():
                writer.writerow(["gauge", name, "value", value])
            for name, h in data["histograms"].items():
                writer.writerow(["histogram", name, "count", h["count"]])
                writer.writerow(["histogram", name, "sum", h["sum"]])
                writer.writerow(["histogram", name, "mean", h["mean"]])
                writer.writerow(["histogram", name, "min", h["min"]])
                writer.writerow(["histogram", name, "max", h["max"]])
                for edge, c in zip(h["bucket_le"], h["bucket_counts"]):
                    writer.writerow(["histogram", name, f"le_{edge}", c])

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self.counters)}, "
                f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
            )
