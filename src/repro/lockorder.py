"""Ranked locks with an opt-in runtime lock-order assertion mode.

The repo's concurrency layers (``serve``, ``parallel``, ``obs``) follow
one global lock order, documented here and enforced two ways:

- **statically** — checker RTS004 (``repro.analysis``) builds the
  lock-acquisition graph and flags nesting that contradicts the ranks;
- **at runtime** — with ``REPRO_LOCK_ORDER=1`` in the environment,
  :func:`make_lock` returns an :class:`OrderedLock` that raises
  :class:`LockOrderViolation` the moment a thread acquires a lock whose
  rank is below the highest rank it already holds. The serve stress
  suite runs under this mode.

The global order (lower rank may hold while acquiring higher, never the
reverse)::

     5  churn.compactor   background-compactor wakeup/decision state
    10  serve.service     admission queue + scheduler condition
    20  serve.snapshot    single-writer publish lock
    25  serve.procpool    process-pool segment registry + worker table
    30  serve.cache       result-cache LRU
    35  plan.planner      planner EWMA feedback state
    38  churn.state       churn drift EWMAs (traversal baselines)
    40  obs.metrics       counter/gauge/histogram registry
    45  obs.tracer        child-span registration
    60  parallel.pools    module-level thread-pool registry

The compactor lock sits *below* the serve locks because a compaction
decision ends in ``SpatialQueryService._mutate`` (service lock, then the
snapshot publish lock); the churn drift state sits between the planner
and the obs leaves so both the planner (pricing the fan-out) and the
query path (recording observations) may read it while holding their own
locks.

Leaf subsystems (metrics, tracer, pools) sit at high ranks: anything may
record a metric while holding its own lock, but a metrics callback must
never call back into the service. Without the env toggle
:func:`make_lock` returns a plain ``threading.Lock`` — zero overhead on
the hot path.
"""

from __future__ import annotations

import os
import threading

#: The one global lock order. Checker RTS004 reads this table to verify
#: that the static acquisition graph is consistent with the ranks.
RANKS: dict[str, int] = {
    "churn.compactor": 5,
    "serve.service": 10,
    "serve.snapshot": 20,
    "serve.procpool": 25,
    "serve.cache": 30,
    "plan.planner": 35,
    "churn.state": 38,
    "obs.metrics": 40,
    "obs.tracer": 45,
    "parallel.pools": 60,
}


class LockOrderViolation(AssertionError):
    """A thread acquired a lock out of the documented global order."""


_held = threading.local()


def _stack() -> list:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = []
        _held.stack = stack
    return stack


def held_ranks() -> list[tuple[str, int]]:
    """(name, rank) of every OrderedLock the calling thread holds."""
    return [(lock.name, lock.rank) for lock in _stack()]


def held_lock_ids() -> frozenset[int]:
    """Identities of every OrderedLock the calling thread holds.

    The lockset fuel for the :mod:`repro.tsan` sanitizer: Eraser-style
    refinement intersects by lock *identity* (two distinct instances of
    one subsystem protect nothing about each other), so ``id()`` is the
    right key, not the rank name."""
    return frozenset(id(lock) for lock in _stack())


class OrderedLock:
    """A ``threading.Lock`` that asserts rank order on acquisition.

    The check runs *after* the underlying acquire succeeds: acquiring a
    rank lower than the highest rank already held by this thread
    releases the lock again and raises :class:`LockOrderViolation`.
    Equal ranks are allowed (distinct instances of one subsystem never
    nest in this codebase). Compatible with ``threading.Condition`` —
    ``wait()`` releases through :meth:`release`, which pops the rank
    bookkeeping, and non-blocking ownership probes that fail to acquire
    leave the bookkeeping untouched.
    """

    def __init__(self, name: str, rank: int):
        self.name = name
        self.rank = int(rank)
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._lock.acquire(blocking, timeout)
        if not ok:
            return False
        stack = _stack()
        if stack:
            top = max(stack, key=lambda lk: lk.rank)
            if self.rank < top.rank:
                self._lock.release()
                raise LockOrderViolation(
                    f"acquired {self.name!r} (rank {self.rank}) while holding "
                    f"{top.name!r} (rank {top.rank}); the global order in "
                    "repro.lockorder.RANKS only permits ascending acquisition"
                )
        stack.append(self)
        return True

    def release(self) -> None:
        stack = _stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"OrderedLock({self.name!r}, rank={self.rank})"


def enabled() -> bool:
    """True when runtime lock-order assertions are switched on."""
    return os.environ.get("REPRO_LOCK_ORDER", "") == "1"


def tsan_enabled() -> bool:
    """True when the :mod:`repro.tsan` runtime race sanitizer is on."""
    return os.environ.get("REPRO_TSAN", "") == "1"


def make_lock(name: str, rank: int | None = None):
    """A lock participating in the global order.

    Returns a plain ``threading.Lock`` normally; under
    ``REPRO_LOCK_ORDER=1`` (checked at construction time, so tests can
    flip the env var before building a service) returns an
    :class:`OrderedLock` asserting the order. ``REPRO_TSAN=1`` also
    selects :class:`OrderedLock` — the sanitizer needs the per-thread
    held-lock bookkeeping to compute locksets (and gets the order
    assertion for free). ``rank`` defaults to the :data:`RANKS` entry
    for ``name``; unknown names must pass one.
    """
    if rank is None:
        rank = RANKS[name]
    if enabled() or tsan_enabled():
        return OrderedLock(name, rank)
    return threading.Lock()
