"""Service-level error taxonomy.

Every failure a client of :class:`~repro.serve.SpatialQueryService` can
see is one of these; all derive from :class:`ServeError` so callers can
catch the whole family. They are *control-flow* errors (overload,
deadlines, lifecycle) — malformed requests still raise the underlying
``ValueError`` from the index layer.
"""

from __future__ import annotations


class ServeError(RuntimeError):
    """Base class of every serving-layer error."""


class ServiceOverloaded(ServeError):
    """Admission control rejected the request: the bounded request queue
    is at ``max_queue_depth``. Back off and retry — rejecting at the door
    keeps queueing delay bounded for the requests already admitted."""


class DeadlineExceeded(ServeError):
    """The request's deadline passed before (or while) it was served."""


class ServiceClosed(ServeError):
    """The service has been closed and accepts no new requests."""

