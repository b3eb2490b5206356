"""Structured observability for the simulated query stack.

Three cooperating pieces (see docs/API.md, "Observability"):

- :mod:`repro.obs.tracer` — nested launch spans (query → phase → shard →
  launch → traversal) carrying wall-clock time, simulated time and
  traversal-counter deltas; :data:`NULL_TRACER` is the zero-overhead
  disabled default.
- :mod:`repro.obs.metrics` — a session-level :class:`MetricsRegistry`
  of counters, gauges and per-ray work histograms, exportable as
  JSON/CSV.
- :mod:`repro.obs.workload` — a fixed workload whose counter totals and
  simulated times are the ``obs`` section of ``BENCH_gate.json``;
  ``python -m repro.bench.gate --check`` fails the build on drift
  without a baseline update.

The invariant underlying all three: observation is read-only. Pairs,
per-ray counters and simulated times are bit-identical whether tracing
is on or off, serial or sharded.
"""

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    counter_snapshot,
    record_delta,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "counter_snapshot",
    "record_delta",
]
