"""Runtime lock-order assertions (the REPRO_TSAN=1 mode)."""

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
    # The violating acquire must have released the lock again.
    assert not lo.locked()
    with lo:  # and the bookkeeping recovered
        pass
    assert held_ranks() == []


def test_equal_ranks_allowed(ordered):
    a = make_lock("x", rank=7)
    b = make_lock("y", rank=7)
    with a, b:
        pass


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
