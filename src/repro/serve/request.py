"""Request normalization and the in-flight request record.

A request's query payload is normalized *at admission* into the exact
arrays the index layer would build for a direct call — points become a
C-contiguous ``(n, ndim)`` array of the index dtype, rectangles become a
:class:`~repro.geometry.boxes.Boxes` of the index dtype. Normalizing up
front means (a) malformed payloads fail in the client thread with the
ordinary ``ValueError``, never inside the scheduler; (b) the micro-batcher
can concatenate payloads with plain ``np.concatenate``; and (c) the
result cache can digest the bytes that will actually be traversed.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field

import numpy as np

from repro.core.index import Predicate, _coerce_boxes, _require_finite
from repro.geometry.boxes import Boxes


def normalize_payload(predicate: Predicate, queries, ndim: int, dtype):
    """Canonicalize a query payload for ``predicate`` on an
    (``ndim``, ``dtype``) index; returns the array/Boxes the index layer
    would itself construct, so batched and direct execution see
    bit-identical inputs."""
    if predicate is Predicate.CONTAINS_POINT:
        pts = np.ascontiguousarray(queries, dtype=dtype)
        if pts.ndim != 2 or pts.shape[1] != ndim:
            raise ValueError(f"expected points of shape (n, {ndim})")
        _require_finite("query point", pts)
        return pts
    if predicate in (Predicate.RANGE_CONTAINS, Predicate.RANGE_INTERSECTS):
        boxes = _coerce_boxes(queries, ndim, dtype)
        if predicate is Predicate.RANGE_INTERSECTS and boxes.is_degenerate().any():
            raise ValueError("query rectangles must not be degenerate")
        return boxes
    raise ValueError(f"unsupported predicate: {predicate!r}")


def concat_payloads(predicate: Predicate, payloads: list):
    """Concatenate normalized payloads into one launch-sized payload,
    preserving request order (the batch's query-id space is the
    concatenation order)."""
    if len(payloads) == 1:
        return payloads[0]
    if predicate is Predicate.CONTAINS_POINT:
        return np.concatenate(payloads)
    return Boxes(
        np.concatenate([b.mins for b in payloads]),
        np.concatenate([b.maxs for b in payloads]),
    )


@dataclass
class QueryRequest:
    """One admitted query request, from enqueue to completion."""

    predicate: Predicate
    payload: object
    n_queries: int
    k: int | None
    #: Absolute ``time.monotonic()`` deadline, or None for no deadline.
    deadline: float | None
    future: Future = field(default_factory=Future)
    enqueue_t: float = field(default_factory=time.monotonic)

    def fail(self, err: BaseException) -> None:
        """Complete with ``err`` unless the future is already done: served,
        or cancelled by its client, which may happen at any moment while
        the request is queued."""
        try:
            self.future.set_exception(err)
        except InvalidStateError:
            pass

    def expired(self, now: float | None = None) -> bool:
        return self.deadline is not None and (now or time.monotonic()) >= self.deadline

    def batch_key(self) -> tuple:
        """Requests with equal keys may share one batched launch."""
        return (self.predicate, self.k)
