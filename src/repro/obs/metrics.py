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

from repro import tsan
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
        """Fold an array (or scalar) of observations into the histogram.

        Bucket i holds values in (2^(i-1), 2^i]; values <= 1 land in
        bucket 0, values above the last edge in the inf bucket. The
        bucket is read exactly off the binary exponent (``frexp``: a
        value ``m * 2^e`` with ``0.5 <= m < 1`` is at most ``2^e``, and
        equals ``2^(e-1)`` when ``m == 0.5``).
        """
        arr = np.atleast_1d(np.asarray(values))
        if arr.size == 0:
            return
        m, e = np.frexp(np.maximum(arr.astype(np.float64), 1.0))
        idx = np.minimum(e - (m == 0.5), _BUCKET_POWERS)
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


@tsan.instrument(containers=("_counters", "_gauges", "_histograms"))
class MetricsRegistry:
    """Named counters, gauges and histograms, with JSON/CSV export.

    Thread-safe: query shards and the serve scheduler record
    concurrently, so the dicts are private and every read goes through
    a locked accessor (:meth:`counter`, :meth:`gauge`, :meth:`quantile`,
    :meth:`as_dict`).
    """

    def __init__(self):
        # Rank 40 (leaf): any subsystem may record a metric while
        # holding its own lock; recording never calls back out.
        self._lock = make_lock("obs.metrics")
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name``."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, values) -> None:
        """Fold observations into histogram ``name`` (created empty)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            # The fold itself must stay under the lock: Histogram.observe
            # is a read-modify-write of buckets/count/total, and two
            # shards folding concurrently would lose updates.
            hist.observe(values)

    def clear(self) -> None:
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}

    # -- locked accessors --------------------------------------------------

    def counter(self, name: str, default: int | float = 0) -> int | float:
        """Counter ``name`` read under the lock (0 when absent)."""
        with self._lock:
            return self._counters.get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Gauge ``name`` read under the lock."""
        with self._lock:
            return self._gauges.get(name, default)

    def quantile(self, name: str, q: float, default: float = 0.0) -> float:
        """Quantile of histogram ``name``, computed under the lock (the
        estimate walks buckets/count mid-read otherwise)."""
        with self._lock:
            hist = self._histograms.get(name)
            return hist.quantile(q) if hist is not None else default

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].to_dict()
                    for k in sorted(self._histograms)
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
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
            )
