"""Background compaction driver for a churn-enabled query service.

:class:`BackgroundCompactor` owns one daemon thread that periodically
evaluates :meth:`~repro.churn.ChurnIndex.compaction_due` on the
service's *published snapshot* (a read-only decision — no locks beyond
the drift-state EWMA lock) and, when a trigger fires, routes the
compaction through :meth:`~repro.serve.SpatialQueryService.compact`.
That path is the ordinary single-writer mutation path: the compaction
runs on a copy-on-write fork and publishes atomically as a new epoch,
so readers keep draining their pinned epoch while the fold happens —
compaction never blocks a query.

The decision between trigger evaluation and the mutation is
time-of-check-to-time-of-use against concurrent writers, which is
harmless: the compaction applies to whatever epoch is current when the
writer lock is granted, and a just-published mutation only makes the
fold marginally more (never less) worthwhile.

Lock order: the compactor's own lock (``churn.compactor``, rank 5 —
see :mod:`repro.lockorder`) sits *below* the serve locks, so holding it
across the publish keeps acquisition strictly ascending; it also
serializes synchronous :meth:`poll` calls (tests, benches) against the
background loop. The stop signal is a :class:`threading.Condition` over
that same ranked lock (not a bare ``Event``), so the stop flag, the
thread handle and the compaction counters all live under one guard —
exactly the discipline RTS004/RTS007 enforce.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro import tsan
from repro.lockorder import make_lock
from repro.serve.errors import ServiceClosed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import SpatialQueryService


@tsan.instrument("_stopping", "_thread", "_n_compactions", "_last_summary")
class BackgroundCompactor:
    """Drift-watching compaction thread over a ``SpatialQueryService``.

    ``service`` only needs ``snapshot()`` and ``compact(reason=...)``,
    so tests can drive a stub. Constructed (and owned) by the service
    itself when ``ServiceConfig(churn=...)`` is set.
    """

    def __init__(self, service: "SpatialQueryService", poll_interval: float = 0.002):
        self.service = service
        self.poll_interval = float(poll_interval)
        self._lock = make_lock("churn.compactor")
        # Stop signalling shares the ranked lock: waking the poll loop
        # and reading/writing the stop flag are one critical section.
        self._cond = threading.Condition(self._lock)
        self._stopping = False
        self._thread: threading.Thread | None = None
        self._n_compactions = 0
        self._last_summary: dict | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        with self._lock:
            return self._thread is not None and self._thread.is_alive()

    @property
    def n_compactions(self) -> int:
        """Compactions this driver has fired (all reasons)."""
        with self._lock:
            return self._n_compactions

    @property
    def last_summary(self) -> dict | None:
        """Summary dict of the most recent compaction, or None."""
        with self._lock:
            return self._last_summary

    def start(self) -> "BackgroundCompactor":
        """Start the poll thread (idempotent; no-op after :meth:`stop`)."""
        with self._lock:
            if self._thread is None and not self._stopping:
                self._thread = threading.Thread(
                    target=self._run, name="repro-churn-compactor", daemon=True
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the poll thread (idempotent). Called by the
        service *before* it drains, so no compaction can publish between
        the final batches and shutdown."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._stopping:
                    self._cond.wait(self.poll_interval)
                if self._stopping:
                    return
            try:
                self.poll()
            except ServiceClosed:
                return

    # -- one trigger evaluation -------------------------------------------

    def poll(self) -> dict | None:
        """Evaluate the triggers once; compact through the service if one
        is due. Returns the compaction summary or ``None``. Safe to call
        synchronously — benches do, for deterministic compaction points.
        Runs on the main or compactor thread, never the scheduler: it
        takes ``churn.compactor`` (rank 5), which the lock order forbids
        under the scheduler's ``serve.service`` (rank 10).
        """
        with self._lock:
            snapshot = self.service.snapshot()
            due = getattr(snapshot, "compaction_due", lambda: None)()
            if due is None:
                return None
            summary = self.service.compact(reason=due["reason"])
            summary["trigger"] = due
            self._n_compactions += 1
            self._last_summary = summary
            return summary
