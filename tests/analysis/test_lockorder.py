"""Runtime lock-order assertions (the REPRO_TSAN=1 mode).

The order cases the static lock graph used to report — a descent, a
descent through a typed parameter, a re-acquisition through a call, an
equal-rank cycle, and the scheduler polling the compactor under the
service lock (tests/churn/test_churn_stress_lockorder.py) — are
asserted here at runtime. Each must raise :class:`LockOrderViolation`
before the thread blocks; the cases that would otherwise deadlock run
on a helper thread with a bounded join, so a regression fails instead
of hanging.
"""

from __future__ import annotations

import threading

import pytest

from repro.lockorder import (
    RANKS,
    LockOrderViolation,
    OrderedLock,
    held_ranks,
    make_lock,
)


@pytest.fixture
def ordered(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")


def test_make_lock_plain_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_TSAN", raising=False)
    lock = make_lock("serve.service")
    assert not isinstance(lock, OrderedLock)
    with lock:
        pass


def test_make_lock_ordered_under_env(ordered):
    lock = make_lock("serve.service")
    assert isinstance(lock, OrderedLock)
    assert lock.rank == RANKS["serve.service"]


def test_unknown_name_requires_explicit_rank(ordered):
    with pytest.raises(KeyError):
        make_lock("no.such.lock")
    assert make_lock("no.such.lock", rank=99).rank == 99


def test_ascending_acquisition_passes(ordered):
    lo = make_lock("serve.service")   # 10
    hi = make_lock("obs.metrics")     # 40
    with lo:
        with hi:
            assert [name for name, _ in held_ranks()] == [
                "serve.service", "obs.metrics",
            ]
    assert held_ranks() == []


def test_descending_acquisition_raises(ordered):
    lo = make_lock("serve.service")   # 10
    hi = make_lock("parallel.pools")  # 60
    with hi:
        with pytest.raises(LockOrderViolation, match="ascending"):
            lo.acquire()
    # The check runs before the acquire: the lock was never taken.
    assert not lo.locked()
    with lo:  # and the bookkeeping recovered
        pass
    assert held_ranks() == []


def _on_thread(fn, timeout: float = 5.0):
    """Run ``fn`` on a daemon thread; return what it raised (None if it
    returned). Fails, instead of hanging, if ``fn`` blocks."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as err:
            raised.append(err)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "blocked instead of raising LockOrderViolation"
    return raised[0] if raised else None


def test_equal_ranks_rejected(ordered):
    # Two locks of one rank have no order between them: nesting them in
    # both orders is the cycle fixture.a -> fixture.b -> fixture.a.
    a = make_lock("fixture.a", rank=1)
    b = make_lock("fixture.b", rank=1)

    def nest(outer, inner):
        with outer:
            with inner:
                pass

    for outer, inner in ((a, b), (b, a)):
        err = _on_thread(lambda: nest(outer, inner))
        assert isinstance(err, LockOrderViolation)
        assert f"{inner.name!r} (rank 1) while holding {outer.name!r}" in str(err)
    assert not a.locked() and not b.locked()


def test_descent_through_typed_parameter_raises(ordered):
    class Low:
        def __init__(self):
            self._lock = make_lock("serve.snapshot")  # rank 20

        def grab(self):
            with self._lock:
                pass

    class TypedParam:
        def __init__(self):
            self._lock = make_lock("obs.metrics")  # rank 40

        def push(self, low: Low):
            with self._lock:
                low.grab()

    err = _on_thread(lambda: TypedParam().push(Low()))
    assert isinstance(err, LockOrderViolation)
    assert "'serve.snapshot' (rank 20) while holding 'obs.metrics' (rank 40)" in str(err)


def test_reacquire_through_a_call_raises(ordered):
    # A plain make_lock lock is non-reentrant: outer() -> inner() would
    # block on itself forever.
    class Reentrant:
        def __init__(self):
            self._lock = make_lock("serve.cache")

        def outer(self):
            with self._lock:
                self.inner()

        def inner(self):
            with self._lock:
                pass

    r = Reentrant()
    err = _on_thread(r.outer)
    assert isinstance(err, LockOrderViolation)
    assert "re-acquired 'serve.cache'" in str(err)
    assert not r._lock.locked()


def test_abba_fails_fast_instead_of_deadlocking(ordered):
    # Thread A holds lo and waits for hi (legal); thread B holds hi and
    # asks for lo. Checking after the blocking acquire would deadlock;
    # the check runs first, so B raises, drops hi, and A proceeds.
    lo = make_lock("churn.compactor")  # 5
    hi = make_lock("serve.service")    # 10
    both_held = threading.Barrier(2, timeout=5)
    got_hi = []

    def a():
        with lo:
            both_held.wait()
            got_hi.append(hi.acquire(timeout=5))
            hi.release()

    def b():
        with hi:
            both_held.wait()
            lo.acquire()

    t = threading.Thread(target=a, daemon=True)
    t.start()
    err = _on_thread(b)
    t.join(5)
    assert isinstance(err, LockOrderViolation)
    assert got_hi == [True]


def test_violation_is_per_thread(ordered):
    hi = make_lock("parallel.pools")
    lo = make_lock("serve.service")
    errors = []

    def other_thread():
        try:
            with lo:  # this thread holds nothing: no violation
                pass
        except LockOrderViolation as err:  # pragma: no cover
            errors.append(err)

    with hi:
        t = threading.Thread(target=other_thread)
        t.start()
        t.join()
    assert errors == []


def test_nonblocking_probe_failure_keeps_bookkeeping(ordered):
    lock = make_lock("serve.cache")
    assert lock.acquire()
    try:
        result = []
        t = threading.Thread(target=lambda: result.append(lock.acquire(False)))
        t.start()
        t.join()
        assert result == [False]
    finally:
        lock.release()
    assert held_ranks() == []


def test_condition_compatible(ordered):
    lock = make_lock("serve.service")
    cond = threading.Condition(lock)
    with cond:
        cond.notify_all()
        assert lock.locked()
    assert not lock.locked()
    assert held_ranks() == []


def test_condition_wait_handoff(ordered):
    lock = make_lock("serve.service")
    cond = threading.Condition(lock)
    flag = []

    def producer():
        with cond:
            flag.append(1)
            cond.notify_all()

    with cond:
        t = threading.Thread(target=producer)
        t.start()
        while not flag:
            cond.wait(timeout=1.0)
        t.join()
    assert flag == [1]
    assert held_ranks() == []
