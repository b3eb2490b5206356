"""Edge behavior of OrderedLock bookkeeping.

The tsan lockset computation rides entirely on the per-thread held-lock
stack, so these edges — failed probes, exception unwind, rank-violation
recovery, Condition.wait hand-off — are exactly the paths where a stale
stack entry would fabricate (or hide) a lockset and corrupt every later
Eraser refinement.
"""

from __future__ import annotations

import threading

import pytest

from repro.lockorder import (
    LockOrderViolation,
    OrderedLock,
    held_lock_ids,
    held_ranks,
)


@pytest.fixture(autouse=True)
def _stack_is_balanced():
    yield
    assert held_ranks() == [], "a test leaked held-lock bookkeeping"


def test_with_block_pushes_and_pops():
    lock = OrderedLock("obs.metrics", 40)
    with lock:
        assert held_ranks() == [("obs.metrics", 40)]
        assert id(lock) in held_lock_ids()
    assert held_ranks() == []
    assert not lock.locked()


def test_exception_unwind_releases_and_pops():
    lock = OrderedLock("obs.metrics", 40)
    with pytest.raises(RuntimeError):
        with lock:
            raise RuntimeError("boom")
    assert held_ranks() == []
    assert not lock.locked()
    with lock:  # still acquirable afterwards
        pass


def test_failed_nonblocking_acquire_leaves_bookkeeping_untouched():
    lock = OrderedLock("serve.service", 10)
    lock.acquire()
    got = []

    def prober():
        got.append(lock.acquire(blocking=False))
        got.append(held_ranks())

    t = threading.Thread(target=prober)
    t.start()
    t.join()
    assert got == [False, []]
    lock.release()


def test_nonreentrant_probe_on_own_lock_keeps_single_entry():
    # OrderedLock is non-reentrant (like threading.Lock); the ownership
    # probe pattern Condition._is_owned uses — acquire(False) then
    # release on success — must not double-count the holder's entry.
    lock = OrderedLock("serve.service", 10)
    lock.acquire()
    assert lock.acquire(blocking=False) is False
    assert held_ranks() == [("serve.service", 10)]
    lock.release()
    assert held_ranks() == []


def test_rank_violation_raises_before_taking_the_offender():
    high = OrderedLock("obs.metrics", 40)
    low = OrderedLock("serve.service", 10)
    with high:
        with pytest.raises(LockOrderViolation, match="ascending acquisition"):
            low.acquire()
        # the offending lock was never taken...
        assert not low.locked()
        # ...and the holder's bookkeeping still shows only the high lock
        assert held_ranks() == [("obs.metrics", 40)]
    with low:  # the lock stays usable
        pass


def _nested(outer, inner) -> dict:
    """Take ``outer`` then ``inner`` on a helper thread; what it raised
    and what it held at that point. A helper thread keeps a lock that
    wrongly blocks or leaks out of the test's own bookkeeping."""
    seen = {}

    def run():
        with outer:
            try:
                inner.acquire()
            except LockOrderViolation as err:
                seen["err"] = str(err)
            seen["ids"] = held_lock_ids()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(5)
    assert not t.is_alive(), "blocked instead of raising LockOrderViolation"
    return seen


def test_equal_ranks_may_not_nest():
    a = OrderedLock("obs.metrics", 40)
    b = OrderedLock("obs.metrics", 40)
    seen = _nested(a, b)
    assert "strictly ascending" in seen["err"]
    assert seen["ids"] == {id(a)}
    assert not a.locked() and not b.locked()


def test_reacquiring_a_held_lock_raises():
    lock = OrderedLock("serve.service", 10)
    seen = _nested(lock, lock)
    assert "re-acquired 'serve.service'" in seen["err"]
    assert seen["ids"] == {id(lock)}
    assert not lock.locked()


def test_ascending_then_descending_release_any_order():
    lo = OrderedLock("serve.service", 10)
    hi = OrderedLock("obs.metrics", 40)
    lo.acquire()
    hi.acquire()
    # release() scans by identity, so out-of-order release (lo first)
    # must drop exactly the right entry.
    lo.release()
    assert held_ranks() == [("obs.metrics", 40)]
    hi.release()
    assert held_ranks() == []


def test_condition_wait_drops_and_restores_bookkeeping():
    lock = OrderedLock("serve.service", 10)
    cond = threading.Condition(lock)
    in_wait = threading.Event()
    seen = {}

    def waiter():
        with cond:
            seen["held-before"] = id(lock) in held_lock_ids()
            in_wait.set()
            cond.wait(timeout=5)
            seen["held-after"] = id(lock) in held_lock_ids()
        seen["held-exit"] = held_ranks()

    t = threading.Thread(target=waiter)
    t.start()
    assert in_wait.wait(timeout=5)
    # While the waiter sleeps in wait(), the lock is released through
    # OrderedLock.release, so the notifier can take it — and the
    # notifier's own bookkeeping shows it as the holder.
    with cond:
        assert id(lock) in held_lock_ids()
        cond.notify_all()
    t.join(timeout=5)
    assert not t.is_alive()
    assert seen == {"held-before": True, "held-after": True, "held-exit": []}


def test_stacks_are_per_thread():
    lock = OrderedLock("obs.metrics", 40)
    other = {}

    def observer():
        other["ranks"] = held_ranks()

    with lock:
        t = threading.Thread(target=observer)
        t.start()
        t.join()
    assert other["ranks"] == []
