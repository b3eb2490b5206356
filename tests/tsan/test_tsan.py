"""Seeded-race proof for the REPRO_TSAN=1 runtime lockset sanitizer.

Each test sets the env flag *first* and then defines a small
instrumented class: :func:`repro.tsan.instrument` reads the flag at
class-creation time and :func:`repro.lockorder.make_lock` at lock
construction, so module-level production classes (decorated at import,
usually with the flag down) are exercised separately via a subprocess
that imports the world with ``REPRO_TSAN=1`` already up.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import tsan
from repro.lockorder import make_lock

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _clean_registry():
    tsan.reset()
    yield
    tsan.reset()


def _run_threads(*fns):
    threads = [threading.Thread(target=fn, name=f"tsan-worker-{i}")
               for i, fn in enumerate(fns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_catches_unguarded_counter(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")

    @tsan.instrument("count")
    class Tally:
        def __init__(self):
            self.lock = make_lock("obs.metrics")
            self.count = 0

        def locked_bump(self):
            with self.lock:
                self.count += 1

        def racy_bump(self):
            self.count += 1  # no lock: the seeded race

    t = Tally()
    _run_threads(
        lambda: [t.locked_bump() for _ in range(50)],
        lambda: [t.racy_bump() for _ in range(50)],
    )
    hits = [r for r in tsan.races() if r.cls == "Tally" and r.field == "count"]
    assert hits, tsan.races()
    assert "Eraser lockset refined to empty" in hits[0].message
    state = tsan.field_state(t, "count")
    assert state["stage"] == "shared-modified"
    assert state["lockset"] == set()


def test_catches_unlocked_snapshot_mutation(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")

    @tsan.instrument(containers=("_history",), atomic=("_current",))
    class Snapshots:
        def __init__(self):
            self._lock = make_lock("serve.snapshot")
            self._current = 0
            self._history = {0: "seed"}

        def publish(self, epoch):
            with self._lock:
                self._history[epoch] = f"epoch-{epoch}"
                self._current = epoch

        def rogue_trim(self):
            self._history.pop(0, None)  # mutation without the write lock

    s = Snapshots()
    _run_threads(
        lambda: [s.publish(e) for e in range(1, 40)],
        lambda: [s.rogue_trim() for _ in range(40)],
    )
    hits = [r for r in tsan.races()
            if r.cls == "Snapshots" and r.field == "_history"]
    assert hits, tsan.races()


def test_consistent_locking_is_silent(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")

    @tsan.instrument("count", containers=("log",))
    class Clean:
        def __init__(self):
            self.lock = make_lock("obs.metrics")
            self.count = 0
            self.log = []

        def bump(self):
            with self.lock:
                self.count += 1
                self.log.append(self.count)

        def read(self):
            with self.lock:
                return self.count

    c = Clean()
    _run_threads(
        lambda: [c.bump() for _ in range(100)],
        lambda: [c.read() for _ in range(100)],
    )
    assert tsan.races() == []
    assert c.read() == 100  # a bare c.count here would itself be a race
    state = tsan.field_state(c, "count")
    assert state["stage"] == "shared-modified"
    assert state["lockset"], "the common guard must survive refinement"


def test_catches_lockfree_read(monkeypatch):
    # Writes hold the lock; a reader on another thread skips it. The
    # read leaves the candidate lockset empty, so the next locked write
    # reports — the shape of every unlocked metrics/cache counter read.
    monkeypatch.setenv("REPRO_TSAN", "1")

    @tsan.instrument("done")
    class Tally:
        def __init__(self):
            self.lock = make_lock("serve.service")
            self.done = 0

        def bump(self):
            with self.lock:
                self.done += 1

        def progress(self):
            return self.done  # no lock: the seeded race

    t = Tally()
    t.bump()
    _run_threads(t.progress)
    t.bump()
    hits = [r for r in tsan.races() if r.cls == "Tally" and r.field == "done"]
    assert hits, tsan.races()
    assert hits[0].kind == "write"


def test_catches_disjoint_guards(monkeypatch):
    # Each write holds *a* lock, but not the same one.
    monkeypatch.setenv("REPRO_TSAN", "1")

    @tsan.instrument("state")
    class TwoGuards:
        def __init__(self):
            self.a = make_lock("serve.snapshot")
            self.b = make_lock("obs.metrics")
            self.state = 0

        def spin(self):
            with self.a:
                self.state += 1

        def reset(self):
            with self.b:
                self.state = 0

    g = TwoGuards()
    _run_threads(
        lambda: [g.spin() for _ in range(20)],
        lambda: [g.reset() for _ in range(20)],
    )
    hits = [r for r in tsan.races() if r.cls == "TwoGuards" and r.field == "state"]
    assert hits, tsan.races()


def test_lockset_is_by_identity_not_name(monkeypatch):
    # Two *instances* of the same ranked lock protect nothing about each
    # other: guarding with distinct "obs.metrics" locks must still race.
    monkeypatch.setenv("REPRO_TSAN", "1")

    @tsan.instrument("value")
    class SplitBrain:
        def __init__(self):
            self.lock_a = make_lock("obs.metrics")
            self.lock_b = make_lock("obs.metrics")
            self.value = 0

        def via_a(self):
            with self.lock_a:
                self.value += 1

        def via_b(self):
            with self.lock_b:
                self.value += 1

    sb = SplitBrain()
    _run_threads(
        lambda: [sb.via_a() for _ in range(50)],
        lambda: [sb.via_b() for _ in range(50)],
    )
    hits = [r for r in tsan.races() if r.cls == "SplitBrain"]
    assert hits, tsan.races()


def test_atomic_fields_never_report(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")

    @tsan.instrument(atomic=("current",))
    class Publisher:
        def __init__(self):
            self.current = 0

        def publish(self, v):
            self.current = v

    p = Publisher()
    _run_threads(
        lambda: [p.publish(i) for i in range(100)],
        lambda: [p.current for _ in range(100)],
    )
    assert tsan.races() == []
    state = tsan.field_state(p, "current")
    assert state["stage"] == "shared-modified"  # tracked, just exempt


def test_single_thread_stays_exclusive(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")

    @tsan.instrument("n")
    class Solo:
        def __init__(self):
            self.n = 0

    s = Solo()
    for _ in range(10):
        s.n += 1  # construction-pattern writes: one thread, no locks
    assert tsan.races() == []
    assert tsan.field_state(s, "n")["stage"] == "exclusive"


def test_instrument_is_noop_when_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_TSAN", raising=False)

    @tsan.instrument("n")
    class Plain:
        def __init__(self):
            self.n = 0

    p = Plain()
    p.n = 5
    assert tsan.field_state(p, "n") is None
    assert not isinstance(vars(Plain).get("n"), tsan.Shared)


def test_report_is_once_per_class_field(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")

    @tsan.instrument("x")
    class Noisy:
        def __init__(self):
            self.x = 0

    n = Noisy()
    _run_threads(
        lambda: [setattr(n, "x", i) for i in range(200)],
        lambda: [setattr(n, "x", -i) for i in range(200)],
    )
    assert len([r for r in tsan.races() if r.cls == "Noisy"]) == 1


def test_production_service_is_clean_under_tsan():
    """The real serve/churn classes, imported with REPRO_TSAN=1 up, run a
    reader/writer + compaction workload with zero candidate races — the
    end-to-end proof that the instrumented fields keep their guards. An
    observer thread polls the client-facing inspection calls
    (``cache.stats()``, ``metrics.as_dict()``, ``latency_quantiles()``
    and the reprs) while the scheduler writes what they read, so an
    unlocked read in any of them reports."""
    script = r"""
import threading
import numpy as np
from repro import tsan
from repro.churn import ChurnConfig
from repro.core.index import Predicate
from repro.obs import MetricsRegistry
from repro.serve import ServiceConfig, SpatialQueryService
from repro.serve.cache import ResultCache
from repro.serve.snapshot import EpochSnapshots

assert isinstance(vars(SpatialQueryService)["_pending"], tsan.Shared)
assert isinstance(vars(EpochSnapshots)["_current"], tsan.Shared)
assert isinstance(vars(ResultCache)["hits"], tsan.Shared)
assert isinstance(vars(MetricsRegistry)["_counters"], tsan.Shared)

from repro.core.index import RTSIndex
from repro.geometry.boxes import Boxes

rng = np.random.default_rng(9)
mins = rng.random((200, 2)) * 100.0
boxes = Boxes(mins, mins + 1.0 + rng.random((200, 2)))
index = RTSIndex(boxes, dtype=np.float64, seed=7)
config = ServiceConfig(max_batch=4, cache_size=16,
                       churn=ChurnConfig(delta_ratio_max=0.1, refit_wear_max=4,
                                         poll_interval=0.001))
errors = []
with SpatialQueryService(index, config, retain_snapshots=True) as svc:
    stop = threading.Event()
    def observer():
        try:
            while True:
                svc.cache.stats()
                svc.metrics.as_dict()
                svc.latency_quantiles()
                repr(svc), repr(svc.metrics)
                if stop.is_set():
                    return
        except Exception as e:
            errors.append(e)
    def reader(cid):
        r = np.random.default_rng((9, cid))
        try:
            for _ in range(12):
                svc.query(Predicate.CONTAINS_POINT, r.random((5, 2)) * 100.0)
        except Exception as e:
            errors.append(e)
    def writer():
        w = np.random.default_rng(10)
        try:
            for _ in range(6):
                m = w.random((8, 2)) * 100.0
                svc.insert(Boxes(m, m + 1.0))
        except Exception as e:
            errors.append(e)
    watcher = threading.Thread(target=observer)
    watcher.start()
    ts = [threading.Thread(target=reader, args=(c,)) for c in range(3)]
    ts.append(threading.Thread(target=writer))
    for t in ts: t.start()
    for t in ts: t.join()
    stop.set()
    watcher.join()
    # One more scheduler write after the observer's last read, so a read
    # that left a lockset empty is always followed by a write.
    svc.query(Predicate.CONTAINS_POINT, rng.random((5, 2)) * 100.0)
assert not errors, errors
assert tsan.races() == [], [r.message for r in tsan.races()]
print("TSAN-CLEAN")
"""
    env = dict(os.environ, REPRO_TSAN="1", PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "TSAN-CLEAN" in proc.stdout
