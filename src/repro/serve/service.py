"""The request-facing query service.

:class:`SpatialQueryService` turns a single-caller :class:`RTSIndex`
into a concurrent server:

- **Admission control** — requests enter a bounded FIFO queue;
  ``ServiceOverloaded`` rejects beyond ``max_queue_depth`` so queueing
  delay stays bounded for admitted work, and per-request deadlines drop
  requests that waited too long. Malformed payloads (wrong shape, NaN
  or infinite coordinates) raise ``ValueError`` at ``submit``.
- **Micro-batching** — a single scheduler thread coalesces compatible
  queued requests (same predicate / pinned k) into one batched index
  launch (see :mod:`repro.serve.batcher`), amortizing per-launch
  overhead; results scatter back per request in the canonical
  query-major order.
- **Epoch snapshots** — mutations fork the current snapshot
  copy-on-write and publish atomically (:mod:`repro.serve.snapshot`);
  every response carries the epoch it was served from and in-flight
  batches never observe a half-applied mutation.
- **Result cache** — an LRU keyed by ``(predicate, digest, k, epoch)``
  (:mod:`repro.serve.cache`); epoch bumps invalidate it for free.

The single scheduler thread is deliberate: it mirrors one GPU executing
one launch at a time, keeps execution order identical to admission order
(so a serial client through the service is bit-for-bit the direct-index
run — the ``obs`` section of ``python -m repro.bench.gate`` enforces
this), and makes the snapshot read path lock-free. Each turn of the
loop collects one batch, pins the snapshot, admits the batch, executes
it in-process and scatters its result.

Observability: queue depth and epoch gauges, batch-size and latency
histograms (p50/p99 via ``Histogram.quantile``), cache hit/miss,
deadline and batch-error counters on a service-level
:class:`~repro.obs.MetricsRegistry`; when a tracer is installed each
launch runs under a ``serve.batch`` span.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro import tsan
from repro.core.index import Predicate, RTSIndex, check_planner
from repro.core.result import QueryResult
from repro.lockorder import make_lock
from repro.obs.metrics import MetricsRegistry
from repro.serve.batcher import BatchPolicy, execute_batch, split_batch, take_compatible
from repro.serve.cache import ResultCache, query_digest
from repro.serve.errors import DeadlineExceeded, ServiceClosed, ServiceOverloaded
from repro.serve.request import QueryRequest, normalize_payload
from repro.serve.snapshot import EpochSnapshots


@dataclass(frozen=True)
class ServiceConfig:
    """Service policy knobs (see docs/API.md, "Serving")."""

    #: Admission bound: requests beyond this queue depth are rejected
    #: with :class:`ServiceOverloaded` instead of queued.
    max_queue_depth: int = 1024
    #: Maximum requests coalesced into one launch (1 = unbatched).
    max_batch: int = 32
    #: Seconds the scheduler lingers for more compatible requests while
    #: the queue is empty and the batch is not full.
    max_wait: float = 0.002
    #: LRU result-cache entries (0 disables the cache).
    cache_size: int = 256
    #: Default per-request deadline in seconds (None = no deadline).
    default_timeout: float | None = None
    #: Execution planning for served batches, passed to every launch as
    #: :meth:`RTSIndex.query`'s ``planner=``: ``"auto"`` (default) lets
    #: the planner (:mod:`repro.plan`) choose RT or the LBVH per launch;
    #: ``None``/``"off"`` pins the fixed-config path. Answers are
    #: planner-invariant; only simulated/wall time moves.
    planner: str | None = "auto"
    #: High-churn write path: a :class:`~repro.churn.ChurnConfig` wraps
    #: the seed index in a :class:`~repro.churn.ChurnIndex` (writes land
    #: in delta GASes + tombstones; the main structure is never refit)
    #: and runs a :class:`~repro.churn.BackgroundCompactor` that folds
    #: the delta back when a trigger fires, publishing the compacted
    #: index atomically as a new epoch. ``None`` (default) keeps the
    #: plain refit-based write path.
    churn: object | None = None

    def __post_init__(self):
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        BatchPolicy(self.max_batch, self.max_wait)  # validates batch knobs
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        check_planner(self.planner)
        if self.churn is not None:
            # Deferred import: churn is optional and the plan/serve
            # import graph must stay acyclic for churn-free users.
            from repro.churn import ChurnConfig

            if not isinstance(self.churn, ChurnConfig):
                raise ValueError(
                    f"churn must be None or a ChurnConfig, got {self.churn!r}"
                )


@tsan.instrument("_closed", "_thread", containers=("_pending",))
class SpatialQueryService:
    """Concurrent query serving over one :class:`RTSIndex`.

    Parameters
    ----------
    index:
        The seed index; it becomes the initial snapshot and must not be
        mutated directly afterwards (use the service's mutation API).
    config:
        A :class:`ServiceConfig`; defaults are reasonable for tests.
    tracer:
        Optional :class:`~repro.obs.Tracer`; installed on the snapshot
        chain so ``serve.batch`` spans nest the per-phase query spans.
    retain_snapshots:
        ``True`` keeps every published epoch queryable via
        :meth:`snapshot_at` (memory grows per mutation; meant for
        correctness tests).
    autostart:
        Start the scheduler thread immediately. Tests pass False to
        stage requests deterministically, then call :meth:`start`.
    """

    def __init__(
        self,
        index: RTSIndex,
        config: ServiceConfig | None = None,
        *,
        tracer=None,
        retain_snapshots: bool = False,
        autostart: bool = True,
    ):
        self.config = config or ServiceConfig()
        if tracer is not None:
            index.tracer = tracer
        self.tracer = index.tracer
        if self.config.churn is not None:
            from repro.churn import ChurnIndex

            # Wrap the seed in the churn write path. from_index forks
            # copy-on-write, so the caller's index is untouched and its
            # current global ids become the service's public ids.
            index = ChurnIndex.from_index(index, churn=self.config.churn)
        self.snapshots = EpochSnapshots(index, retain_all=retain_snapshots)
        self.policy = BatchPolicy(self.config.max_batch, self.config.max_wait)
        self.cache = ResultCache(self.config.cache_size)
        self.metrics = MetricsRegistry()
        self._pending: deque[QueryRequest] = deque()
        # Rank 10: the service lock is the outermost in the documented
        # global order (repro.lockorder.RANKS) — it may be held while
        # recording metrics (rank 40), never the reverse.
        self._lock = make_lock("serve.service")
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._thread: threading.Thread | None = None
        self._last_served: RTSIndex | None = None
        # owner: stopped and joined by SpatialQueryService.close(),
        # before the scheduler drains.
        self.compactor = None
        if self.config.churn is not None:
            from repro.churn.compactor import BackgroundCompactor

            self.compactor = BackgroundCompactor(
                self, poll_interval=self.config.churn.poll_interval
            )
        if autostart:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SpatialQueryService":
        """Start the scheduler thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-serve-scheduler", daemon=True
                )
                self._thread.start()
        # Outside the service lock: the compactor takes its own lock
        # (rank 5, *below* serve.service) on start, and lock acquisition
        # must stay ascending.
        if self.compactor is not None:
            self.compactor.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut down (idempotent).

        ``drain=True`` (default) serves everything already admitted
        before stopping; ``drain=False`` fails queued requests with
        :class:`ServiceClosed`. Also releases the snapshot index's
        executor resources (:meth:`RTSIndex.close`).
        """
        # Stop the compactor before draining: a compaction publishing
        # mid-drain would be wasted work, and stop() joins, so no poll
        # can race the closed flag below.
        if self.compactor is not None:
            self.compactor.stop()
        with self._cond:
            if self._closed and self._thread is None:
                return
            self._closed = True
            if not drain:
                while self._pending:
                    self._pending.popleft().fail(ServiceClosed("service closed"))
            self._cond.notify_all()
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        else:
            # Never started: fail anything staged for a deterministic start.
            with self._cond:
                while self._pending:
                    self._pending.popleft().fail(ServiceClosed("service closed"))
        last, self._last_served = self._last_served, None
        if last is not None and last is not self.snapshots.current:
            last.close()
        self.snapshots.current.close()

    def __enter__(self) -> "SpatialQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    @property
    def epoch(self) -> int:
        """Epoch of the currently published snapshot."""
        return self.snapshots.epoch

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def snapshot(self) -> RTSIndex:
        """The currently published snapshot (do not mutate it)."""
        return self.snapshots.current

    def snapshot_at(self, epoch: int) -> RTSIndex:
        """A retained snapshot (``retain_snapshots=True`` only)."""
        return self.snapshots.at(epoch)

    def latency_quantiles(self) -> dict[str, float]:
        """p50/p99 service latency in microseconds (from the power-of-two
        histogram, so quantiles are bucket-resolution estimates)."""
        return {
            "p50_us": self.metrics.quantile("serve.latency_us", 0.50),
            "p99_us": self.metrics.quantile("serve.latency_us", 0.99),
        }

    # -- client API: queries ----------------------------------------------

    def submit(self, predicate: Predicate, queries, k: int | None = None,
               timeout: float | None = None):
        """Admit one query request; returns a ``concurrent.futures.Future``
        resolving to the per-request :class:`QueryResult` (or raising a
        :class:`~repro.serve.errors.ServeError`). Raises
        :class:`ServiceOverloaded` / :class:`ServiceClosed` synchronously
        at admission."""
        seed = self.snapshots.current
        payload = normalize_payload(predicate, queries, seed.ndim, seed.dtype)
        timeout = timeout if timeout is not None else self.config.default_timeout
        deadline = time.monotonic() + timeout if timeout is not None else None
        req = QueryRequest(
            predicate=predicate,
            payload=payload,
            n_queries=len(payload),
            k=k,
            deadline=deadline,
        )
        with self._cond:
            if self._closed:
                raise ServiceClosed("service is closed")
            if len(self._pending) >= self.config.max_queue_depth:
                self.metrics.inc("serve.rejected")
                raise ServiceOverloaded(
                    f"queue depth {len(self._pending)} at max_queue_depth="
                    f"{self.config.max_queue_depth}"
                )
            self._pending.append(req)
            self.metrics.inc("serve.requests")
            self.metrics.set_gauge("serve.queue_depth", len(self._pending))
            self._cond.notify()
        return req.future

    def query(self, predicate: Predicate, queries, k: int | None = None,
              timeout: float | None = None) -> QueryResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(predicate, queries, k=k, timeout=timeout).result()

    def query_points(self, points, **kw) -> QueryResult:
        return self.query(Predicate.CONTAINS_POINT, points, **kw)

    def query_contains(self, rects, **kw) -> QueryResult:
        return self.query(Predicate.RANGE_CONTAINS, rects, **kw)

    def query_intersects(self, rects, k: int | None = None, **kw) -> QueryResult:
        return self.query(Predicate.RANGE_INTERSECTS, rects, k=k, **kw)

    # -- client API: mutations (single writer) -----------------------------

    def _mutate(self, name: str, op):
        with self._lock:
            # Under the lock: close() publishes _closed under the same
            # lock, so a writer can't read a torn flag. A close racing
            # past this check only wastes a fork — the published epoch
            # is never read again after close.
            if self._closed:
                raise ServiceClosed("service is closed")
        out = self.snapshots.apply(op)
        self.metrics.inc("serve.mutations")
        self.metrics.inc(f"serve.mutations.{name}")
        self.metrics.set_gauge("serve.epoch", self.snapshots.epoch)
        return out

    def insert(self, data):
        """Insert rectangles; publishes a new epoch. Returns global ids."""
        return self._mutate("insert", lambda ix: ix.insert(data))

    def delete(self, ids) -> None:
        self._mutate("delete", lambda ix: ix.delete(ids))

    def update(self, ids, new_data) -> None:
        self._mutate("update", lambda ix: ix.update(ids, new_data))

    def rebuild(self) -> None:
        self._mutate("rebuild", lambda ix: ix.rebuild())

    def compact(self, reason: str = "manual") -> dict:
        """Fold the churn delta into a fresh main structure and publish
        the compacted index as a new epoch (churn-enabled services only).
        Readers keep draining their pinned epoch meanwhile. Runs on the
        main or compactor thread, never the scheduler: the compactor calls
        it under ``churn.compactor`` (rank 5), which the lock order forbids
        under the scheduler's ``serve.service`` (rank 10)."""
        if not hasattr(self.snapshots.current, "compact"):
            raise TypeError(
                "compact() requires a churn-enabled service "
                "(ServiceConfig(churn=...) or a ChurnIndex seed)"
            )
        return self._mutate("compact", lambda ix: ix.compact(reason=reason))

    # -- scheduler ---------------------------------------------------------

    def _collect_batch(self, batch: list[QueryRequest]) -> bool:
        """Block until a batch is ready, filling ``batch`` in place with a
        FIFO-prefix run of compatible requests (with a bounded linger for
        stragglers); False once the service is closed and drained. In
        place, so a fault mid-collection leaves every request taken off
        the queue in the scheduler's hands."""
        with self._cond:
            while not self._pending and not self._closed:
                self._cond.wait()
            if not self._pending:
                return False  # closed and drained
            batch.extend(take_compatible(self._pending, self.policy.max_batch))
            if self.policy.max_wait > 0 and len(batch) < self.policy.max_batch:
                key = batch[0].batch_key()
                end = time.monotonic() + self.policy.max_wait
                while len(batch) < self.policy.max_batch and not self._closed:
                    if self._pending:
                        if self._pending[0].batch_key() != key:
                            break  # incompatible head: dispatch now, keep FIFO
                        batch.append(self._pending.popleft())
                        continue
                    remaining = end - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
            self.metrics.set_gauge("serve.queue_depth", len(self._pending))
            return True

    def _complete(self, req: QueryRequest, result: QueryResult) -> None:
        latency_us = (time.monotonic() - req.enqueue_t) * 1e6
        self.metrics.observe("serve.latency_us", latency_us)
        self.metrics.inc("serve.completed")
        req.future.set_result(result)

    def _admit_batch(
        self, batch: list[QueryRequest], epoch: int, now: float
    ) -> list[tuple[QueryRequest, tuple | None]]:
        """Deadline and cache admission for one collected batch: requests
        their clients cancelled while queued are dropped, expired
        requests fail, cache hits complete immediately; the survivors are
        returned with their cache keys for post-execution insertion."""
        live: list[tuple[QueryRequest, tuple | None]] = []
        for req in batch:
            if not req.future.set_running_or_notify_cancel():
                continue  # cancelled: completing it would raise
            if req.expired(now):
                self.metrics.inc("serve.deadline_missed")
                req.future.set_exception(
                    DeadlineExceeded(
                        f"deadline passed {now - req.deadline:.4f}s before dispatch"
                    )
                )
                continue
            key = None
            if self.cache.capacity:
                key = self.cache.key(
                    req.predicate, query_digest(req.payload), req.k, epoch
                )
                hit = self.cache.get(key)
                if hit is not None:
                    self.metrics.inc("serve.cache.hits")
                    self._complete(req, hit)
                    continue
                self.metrics.inc("serve.cache.misses")
            live.append((req, key))
        return live

    def _finish_batch(
        self,
        result: QueryResult,
        live: list[tuple[QueryRequest, tuple | None]],
        epoch: int,
    ) -> None:
        """Account for one executed batch and scatter it per request."""
        requests = [req for req, _ in live]
        self.metrics.inc("serve.batches")
        self.metrics.inc("serve.batched_requests", len(requests))
        self.metrics.observe("serve.batch_size", len(requests))
        parts = split_batch(result, requests, epoch)
        for (req, key), part in zip(live, parts):
            if key is not None:
                self.cache.put(key, part)
            self._complete(req, part)

    def _run(self) -> None:
        """The scheduler loop: collect a batch, then serve it. A fault
        outside a batch's own execution (collection, admission, scatter,
        metrics) would otherwise kill this thread and leave every client
        blocked on a future nobody completes: it closes the service
        instead, fails the stranded requests with the error and is
        re-raised so the thread's death is reported."""
        batch: list[QueryRequest] = []
        try:
            while self._collect_batch(batch):
                self._serve_batch(batch)
                batch = []
        except BaseException as err:
            self._fail_stranded(batch, err)
            raise

    def _fail_stranded(self, batch: list[QueryRequest], err: BaseException) -> None:
        """Close the service after a scheduler fault and hand ``err`` to
        the collected batch and every queued request; later
        :meth:`submit` calls raise :class:`ServiceClosed`."""
        with self._cond:
            self._closed = True
            stranded = batch + list(self._pending)
            self._pending.clear()
            self._cond.notify_all()
        for req in stranded:
            req.fail(err)

    def _serve_batch(self, batch: list[QueryRequest]) -> None:
        """Pin the published snapshot, admit the batch, execute it, then
        fail or scatter it. Execution follows admission order, so a
        serial client through the service is bit-for-bit the
        direct-index run."""
        snapshot = self.snapshots.current  # epoch pinned for the batch
        prev = self._last_served
        if prev is not None and prev is not snapshot and not self.snapshots.retain_all:
            # Superseded epoch: release its executor pool references
            # now rather than at service close, so a long-lived
            # service under mutation load doesn't accumulate one
            # pool reference per published epoch. RTSIndex.close()
            # is non-destructive — an external holder of the old
            # snapshot can still query it (it re-acquires a pool).
            prev.close()
        self._last_served = snapshot
        epoch = snapshot.epoch
        live = self._admit_batch(batch, epoch, time.monotonic())
        if not live:
            return
        requests = [req for req, _ in live]
        try:
            with self.tracer.span(
                "serve.batch",
                epoch=epoch,
                batch_size=len(requests),
                predicate=requests[0].predicate.value,
                n_queries=sum(r.n_queries for r in requests),
            ):
                result = execute_batch(snapshot, requests, planner=self.config.planner)
        except BaseException as err:  # complete, don't kill the scheduler
            for req in requests:
                req.future.set_exception(err)
            self.metrics.inc("serve.batch_errors")
            return
        self.metrics.inc("serve.sim_time", result.sim_time)
        self._finish_batch(result, live, epoch)

    def __repr__(self) -> str:
        return (
            f"SpatialQueryService(epoch={self.epoch}, queue={self.queue_depth}, "
            f"max_batch={self.policy.max_batch}, cache={self.cache!r})"
        )
