"""Concurrent query serving over :class:`~repro.core.index.RTSIndex`.

The first request-facing layer of the reproduction (ROADMAP north star:
serve heavy traffic, not just library calls). Four cooperating pieces:

- :mod:`repro.serve.service` — :class:`SpatialQueryService`: bounded
  admission queue, per-request deadlines, a single scheduler thread.
- :mod:`repro.serve.batcher` — micro-batching: compatible FIFO-prefix
  requests coalesce into one launch; results scatter back per request.
- :mod:`repro.serve.snapshot` — epoch snapshots: mutations fork the
  index copy-on-write and publish atomically; readers never see a torn
  structure.
- :mod:`repro.serve.cache` — LRU result cache keyed by
  ``(predicate, query digest, k, epoch)``; epoch bumps invalidate free.

The deterministic serving workloads in :mod:`repro.serve.bench` are the
``serve`` section of ``python -m repro.bench.gate``; wall-clock serving
is measured by ``perfbench/run.py``. See docs/API.md "Serving" and
DESIGN.md §9.
"""

from repro.serve.cache import ResultCache, query_digest
from repro.serve.errors import (
    DeadlineExceeded,
    ServeError,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.serve.request import QueryRequest, normalize_payload
from repro.serve.service import ServiceConfig, SpatialQueryService
from repro.serve.snapshot import EpochSnapshots

__all__ = [
    "DeadlineExceeded",
    "EpochSnapshots",
    "QueryRequest",
    "ResultCache",
    "ServeError",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceOverloaded",
    "SpatialQueryService",
    "normalize_payload",
    "query_digest",
]
