"""Workloads ``serve-read`` and ``serve-churn``: open-loop serving.

Both drive one in-process ``SpatialQueryService`` (default config:
planner ``"auto"``, result cache of 256) over 100k uniform rectangles
from a single generator thread. Read requests carry 32 queries, mixed
50/25/25 point/contains/intersects (intersects at 0.05% selectivity).

- ``serve-read``: reads only, open loop at 40 req/s (about 1/7 of its
  measured capacity), 25% of them repeating a payload from a 32-entry
  hot set so the result cache is used.
- ``serve-churn``: the churn write path (``ServiceConfig(churn=...)``)
  at 15 ops/s, 20% of them writes of 512 rectangles in equal thirds of
  insert, delete and update; no hot set.

A run alternates open-loop and saturation phases, about ``CYCLE_S``
seconds per pair, so both sample the whole run rather than one stretch
of it (the host's speed drifts over seconds). An open-loop phase sends
each operation when it is due, whatever the state of earlier ones, and
times it from its due time, so a stall shows up in the latency of
everything queued behind it. A saturation phase keeps the service's
queue full, topping reads up to ``OUTSTANDING`` in flight whenever half
of them have landed (writes keep their schedule), to measure capacity;
``capacity_qps`` is the median over the run's saturation phases. Every
response is checked afterwards against a brute-force oracle over the
live set at the epoch it was served from, rebuilt from the benchmark's
own mirror of its writes.
A request not answered within ``WATCHDOG_S`` after its phase counts as
failed, and the run reports instead of hanging.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import defaultdict
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

import inputs
import tracing
from common import Outcome, digest, median, peak_rss_mb, tail
from oracle import Mirror
from repro import RTSIndex, ServiceConfig, SpatialQueryService
from repro.churn import ChurnConfig
from repro.core.index import Predicate
from repro.geometry.boxes import Boxes
from repro.obs import Tracer
from repro.serve.errors import ServeError

N_RECTS = 100_000
#: Queries per read request.
QUERIES = 32
SELECTIVITY = 0.0005
#: Read kinds: 50% point, 25% contains, 25% intersects.
MIX = ("point", "point", "contains", "intersects")
KINDS = ("point", "contains", "intersects")
HOT_SET = 32
WRITE_RECTS = 512
WRITE_OPS = ("insert", "delete", "update")
#: Share of ``--seconds`` spent in open-loop phases; the rest is spent
#: in saturation phases.
OPEN_SHARE = 0.6
#: Seconds per open-loop + saturation pair.
CYCLE_S = 3.0
#: Open-loop operations come in blocks of this many, a whole number of
#: read-kind cycles (``MIX``) and write periods, so every open-loop phase
#: repeats the same operation pattern.
BLOCK = 20
#: Most reads in flight in a saturation phase.
OUTSTANDING = 16
#: Seconds a request may stay unanswered after its phase ends.
WATCHDOG_S = 20.0
#: Set-ups before the phases; one more follows every open-loop +
#: saturation pair, so ``setup_s``, their median, samples the whole run.
SETUPS = 3

PREDICATE = {
    "point": Predicate.CONTAINS_POINT,
    "contains": Predicate.RANGE_CONTAINS,
    "intersects": Predicate.RANGE_INTERSECTS,
}


@dataclass(frozen=True)
class Spec:
    #: Open-loop operations per second.
    rate: float
    #: Share of operations that are writes.
    write_share: float
    #: Share of reads that repeat a hot-set payload.
    hot_share: float
    churn: bool


SPECS = {
    "serve-read": Spec(rate=40.0, write_share=0.0, hot_share=0.25, churn=False),
    "serve-churn": Spec(rate=15.0, write_share=0.2, hot_share=0.0, churn=True),
}


class Read:
    """One read request from generation to check."""

    __slots__ = ("kind", "payload", "phase", "due", "sent", "done", "future", "rejected",
                 "error", "digest", "epoch")

    def __init__(self, kind: str, payload, phase: str = "open"):
        self.kind = kind
        self.payload = payload
        self.phase = phase
        self.due = self.sent = 0.0
        self.done: float | None = None
        self.future = None
        self.rejected = False
        self.error = None
        self.digest: str | None = None
        self.epoch = -1

    def complete(self, future) -> None:
        """Done-callback: stamp the time, keep only what the check needs
        (a digest of the pairs; the response is dropped with the future)."""
        self.done = time.perf_counter()
        err = future.exception()
        if err is None:
            result = future.result()
            self.digest = digest(result.rect_ids, result.query_ids)
            self.epoch = result.meta["epoch"]
        else:
            self.error = err
        self.future = None

    @property
    def answered(self) -> bool:
        return self.digest is not None


class Write:
    """One write and the epoch it was published under."""

    __slots__ = ("op", "ids", "mins", "maxs", "due", "end", "epoch", "ok")

    def __init__(self, op: str, mins=None, maxs=None):
        self.op = op
        self.ids = None
        self.mins, self.maxs = mins, maxs
        self.due = self.end = 0.0
        self.epoch = -1
        self.ok = False


class Stream:
    """Seeded read and write payloads."""

    def __init__(self, mins, maxs, side: float, spec: Spec, rng: np.random.Generator):
        self.mins, self.maxs, self.side, self.rng = mins, maxs, side, rng
        self.n_reads = self.n_writes = 0
        self.hot_share = spec.hot_share
        self.hot = [self._fresh(self._kind()) for _ in range(HOT_SET)] if spec.hot_share else []

    def _fresh(self, kind: str) -> tuple[str, object]:
        if kind == "point":
            return kind, inputs.points(self.mins, self.maxs, QUERIES, self.rng)
        if kind == "contains":
            return kind, inputs.contained(self.mins, self.maxs, QUERIES, self.rng)
        return kind, inputs.intersecting(self.mins, self.maxs, QUERIES, self.side, self.rng)

    def warm(self) -> list[Read]:
        """One fresh read of each kind."""
        return [Read(*self._fresh(kind)) for kind in KINDS]

    def _kind(self) -> str:
        """Read kinds follow ``MIX`` in order, and writes take fixed slots.
        Then every serve-churn intersects read is the first after a new
        epoch and pays the planner's baseline rebuild (drawn at random,
        about half would, and their median flipped between the two cases
        from seed to seed), and saturation batches have the same
        composition on every run, so the planner prices the same batch
        shapes (drawn at random, serve-read capacity spread over 25%)."""
        self.n_reads += 1
        return MIX[(self.n_reads - 1) % len(MIX)]

    def read(self, phase: str = "open") -> Read:
        if self.hot and self.rng.random() < self.hot_share:
            return Read(*self.hot[self.rng.integers(HOT_SET)], phase)
        return Read(*self._fresh(self._kind()), phase)

    def write(self) -> Write:
        op = WRITE_OPS[self.n_writes % len(WRITE_OPS)]
        self.n_writes += 1
        if op == "delete":
            return Write(op)
        return Write(op, *inputs.rects("uniform", WRITE_RECTS, self.rng))


def build(spec: Spec, mins, maxs, warm: list[Read], tracer=None):
    """Set-up: build the index, start the service, answer one warm-up
    read per kind (which builds the planner's lazy baseline structures)."""
    index = RTSIndex(Boxes(mins, maxs))
    config = ServiceConfig(churn=ChurnConfig()) if spec.churn else ServiceConfig()
    service = SpatialQueryService(index, config, tracer=tracer)
    for read in warm:
        service.submit(PREDICATE[read.kind], read.payload).result(timeout=WATCHDOG_S)
    return service


def timed_setup(spec: Spec, mins, maxs, warm: list[Read], setups: list) -> None:
    """One set-up, timed into ``setups`` and closed again."""
    start = time.perf_counter()
    service = build(spec, mins, maxs, warm)
    setups.append(time.perf_counter() - start)
    service.close()


class Client:
    """The single generator thread: sends reads and writes, stamps their
    times, and maps every write to the epoch it published."""

    def __init__(self, service, spec: Spec, stream: Stream, n_ids: int, sample_churn: bool):
        self.service, self.spec, self.stream = service, spec, stream
        self.reads: list[Read] = []
        self.writes: list[Write] = []
        self.n_ids = n_ids
        self.sample_churn = sample_churn
        self.churn_samples: list[tuple[float, float, float]] = []
        snap = service.snapshot()
        self.seen_ops = len(snap.op_log)
        self.last_epoch = snap.epoch
        #: Saturation reads in flight, and the event that wakes the
        #: generator when half of them have landed.
        self.inflight = 0
        self.lock = threading.Lock()
        self.low = threading.Event()

    def send(self, read: Read, due: float):
        """Submit ``read``; returns its future, or None if it was rejected."""
        read.due = due
        read.sent = time.perf_counter()
        self.reads.append(read)
        try:
            future = self.service.submit(PREDICATE[read.kind], read.payload)
        except ServeError:
            read.rejected = True
            return None
        read.future = future
        future.add_done_callback(read.complete)
        return future

    def write(self, w: Write, due: float) -> None:
        w.due = due
        self.writes.append(w)
        rng = self.stream.rng
        try:
            if w.op == "insert":
                w.ids = np.asarray(self.service.insert((w.mins, w.maxs)))
                expected = np.arange(self.n_ids, self.n_ids + WRITE_RECTS)
                w.ok = np.array_equal(w.ids, expected)
                self.n_ids += WRITE_RECTS
            else:
                # Public ids, not snapshot slots: after update-moves the
                # internal slot count exceeds the public id range.
                w.ids = rng.choice(self.n_ids, WRITE_RECTS, replace=False)
                if w.op == "delete":
                    self.service.delete(w.ids)
                else:
                    self.service.update(w.ids, (w.mins, w.maxs))
                w.ok = True
        except Exception as err:  # counted as failed, the run goes on
            print(f"{w.op} failed: {err!r}")
        w.end = time.perf_counter()
        self._publication(w)

    def _publication(self, w: Write) -> None:
        """The epoch ``w`` was published under. The snapshot's op log
        lists the write's record among any compactions published around
        it; each compaction after the write bumped the epoch by exactly
        one (and changed no live rectangle)."""
        snap = self.service.snapshot()
        ops = snap.op_log[self.seen_ops:]
        self.seen_ops += len(ops)
        mine = [i for i, rec in enumerate(ops) if rec.op != "compact"]
        if mine:
            self.last_epoch = snap.epoch - (len(ops) - mine[-1] - 1)
        # A write with no record changed nothing, so it shares the
        # previous epoch's live set.
        w.epoch = self.last_epoch
        if self.sample_churn:
            churn = snap.describe()["churn"]
            self.churn_samples.append(
                (churn["delta_batches"], churn["drift_factor"], churn["tombstones"] / snap.n_rects)
            )

    def open_ops(self, seconds: float) -> list:
        """The open-loop operations of a whole run, drawn up front so that
        their kinds do not depend on how many reads the saturation phases
        drew. A write comes first in every period, so each serve-churn
        intersects read is the first after a new epoch."""
        n_ops = max(1, int(self.spec.rate * seconds))
        period = round(1.0 / self.spec.write_share) if self.spec.write_share else 0
        return [
            self.stream.write() if period and i % period == 0 else self.stream.read()
            for i in range(n_ops)
        ]

    def open_loop(self, ops: list) -> None:
        """Each operation sent when due, whatever earlier ones are doing."""
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            due = t0 + i / self.spec.rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if isinstance(op, Write):
                self.write(op, due)
            else:
                self.send(op, due)
        self.drain()

    def _landed(self, _future) -> None:
        """Done-callback of a saturation read."""
        with self.lock:
            self.inflight -= 1
            if self.inflight <= OUTSTANDING // 2:
                self.low.set()

    def _top_up(self) -> None:
        """Send saturation reads until ``OUTSTANDING`` are in flight."""
        while True:
            with self.lock:
                if self.inflight >= OUTSTANDING:
                    return
                self.inflight += 1
            future = self.send(self.stream.read("saturation"), time.perf_counter())
            if future is None:
                with self.lock:
                    self.inflight -= 1
                return
            future.add_done_callback(self._landed)

    def saturate(self, seconds: float) -> tuple[float, float]:
        """Keep the service saturated for ``seconds`` while the writes keep
        their open-loop schedule; returns the window. Reads in flight are
        topped up to ``OUTSTANDING`` whenever half of them have landed, so
        the generator thread wakes once per ``OUTSTANDING // 2`` answers
        rather than once per answer, and takes the interpreter lock from
        the service's scheduler thread less often."""
        write_rate = self.spec.rate * self.spec.write_share
        t0 = time.perf_counter()
        t1 = t0 + seconds
        next_write = t0 + 1.0 / write_rate if write_rate else float("inf")
        while True:
            now = time.perf_counter()
            if now >= t1:
                break
            if now >= next_write:
                self.write(self.stream.write(), next_write)
                next_write += 1.0 / write_rate
                continue
            self.low.clear()
            self._top_up()
            self.low.wait(min(t1, next_write) - now)
        self.drain()
        return t0, t1

    def drain(self) -> None:
        """Wait for every read sent so far, at most ``WATCHDOG_S``."""
        pending = [r.future for r in self.reads if r.future is not None]
        if pending:
            wait(pending, timeout=WATCHDOG_S)

    def hung(self) -> int:
        return sum(1 for r in self.reads if not r.rejected and r.done is None)


def close(service, hung: bool) -> None:
    """Close the service; one with unanswered requests may never drain,
    so it is closed from a daemon thread that is given up on."""
    if not hung:
        service.close()
        return
    closer = threading.Thread(target=service.close, kwargs={"drain": False}, daemon=True)
    closer.start()
    closer.join(timeout=5.0)


def check(client: Client, mins, maxs) -> tuple[int, int]:
    """Compare every answered read with the oracle over the live set at
    its epoch; returns (mismatches, checked)."""
    writes = [w for w in client.writes if w.ok]
    epochs = [w.epoch for w in writes]
    by_version = defaultdict(list)
    for read in client.reads:
        if read.answered:
            by_version[bisect.bisect_right(epochs, read.epoch)].append(read)
    mirror = Mirror(mins, maxs)
    applied, mismatches, checked = 0, 0, 0
    for version in sorted(by_version):
        for w in writes[applied:version]:
            mirror.apply(w.op, w.ids, w.mins, w.maxs)
        applied = version
        oracle = mirror.oracle()
        for kind in KINDS:
            group = [r for r in by_version[version] if r.kind == kind]
            if not group:
                continue
            if kind == "point":
                payload = np.concatenate([r.payload for r in group])
            else:
                payload = tuple(np.concatenate([r.payload[i] for r in group]) for i in (0, 1))
            rects, queries = oracle.answer(kind, payload)
            for i, read in enumerate(group):
                lo, hi = np.searchsorted(queries, [i * QUERIES, (i + 1) * QUERIES])
                mismatches += read.digest != digest(rects[lo:hi], queries[lo:hi] - i * QUERIES)
                checked += 1
    if mismatches:
        print(f"{mismatches} of {checked} responses differ from the oracle")
    return mismatches, checked


def _phases(service, spec: Spec, stream: Stream, seconds: float, sample_churn: bool,
            between=None):
    """Alternate open-loop and saturation phases for ``seconds``, calling
    ``between`` (if given) after each pair, when no read is in flight;
    returns the client, the whole window and the saturation windows."""
    client = Client(service, spec, stream, N_RECTS, sample_churn)
    ops = client.open_ops(OPEN_SHARE * seconds)
    cycles = max(1, round(seconds / CYCLE_S))
    bounds = [min(len(ops), BLOCK * round(i * len(ops) / cycles / BLOCK)) for i in range(cycles)]
    bounds.append(len(ops))
    t0 = time.perf_counter()
    windows = []
    for lo, hi in zip(bounds, bounds[1:]):
        client.open_loop(ops[lo:hi])
        windows.append(client.saturate((1.0 - OPEN_SHARE) * seconds / cycles))
        if client.hung():
            break  # the watchdog expired: report instead of going on
        if between is not None:
            between()
    return client, (t0, time.perf_counter()), windows


def _hit_rate(before: dict, after: dict) -> float:
    """Result-cache hit rate between two ``ResultCache.stats()``."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def _capacity(client: Client, windows) -> float:
    """Median over the saturation phases of reads completed per second."""
    done = sorted(r.done for r in client.reads if r.phase == "saturation" and r.answered)
    return median([
        (bisect.bisect_right(done, t1) - bisect.bisect_left(done, t0)) / (t1 - t0)
        for t0, t1 in windows
    ])


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir) -> Outcome:
    spec = SPECS[workload]
    rng = np.random.default_rng(seed)
    mins, maxs = inputs.rects("uniform", N_RECTS, rng)
    side = inputs.intersecting_side(mins, maxs, SELECTIVITY, rng)
    warm = Stream(mins, maxs, side, spec, np.random.default_rng([seed, 1])).warm()

    setups = []
    for _ in range(SETUPS - 1):
        timed_setup(spec, mins, maxs, warm, setups)
    start = time.perf_counter()
    service = build(spec, mins, maxs, warm)
    setups.append(time.perf_counter() - start)
    # A traced run splits its time between the untraced and traced passes.
    if trace:
        seconds /= 2
    stream = Stream(mins, maxs, side, spec, np.random.default_rng([seed, 2]))
    cache0 = service.cache.stats()
    client, _, sat = _phases(service, spec, stream, seconds, sample_churn=False,
                             between=lambda: timed_setup(spec, mins, maxs, warm, setups))
    cache1 = service.cache.stats()
    compactions = service.compactor.n_compactions if service.compactor else 0
    hung = client.hung()
    close(service, hung)
    rss = peak_rss_mb()
    mismatches, checked = check(client, mins, maxs)

    reads, writes = client.reads, client.writes
    answered = [r for r in reads if r.answered]
    failed_reads = len(reads) - len(answered)
    failed_writes = sum(1 for w in writes if not w.ok)
    attempted = len(reads) + len(writes)
    failed = failed_reads + failed_writes + mismatches
    outcome = Outcome(attempted=attempted, failed=failed, correct=mismatches == 0 and checked > 0)

    open_reads = [r for r in answered if r.phase == "open"]
    all_lat = [(r.done - r.due) * 1e3 for r in open_reads]
    latency = {kind: [ms for r, ms in zip(open_reads, all_lat) if r.kind == kind] for kind in KINDS}
    capacity = _capacity(client, sat)
    outcome.e2e = {
        "setup_s": (median(setups), "s"),
        **{f"{kind}_ms": (median(latency[kind]), "ms") for kind in KINDS},
        "peak_rss_mb": (rss, "MB"),
    }
    lateness = [(r.sent - r.due) * 1e3 for r in reads if r.phase == "open"]
    outcome.report = {
        "read_p50_ms": (median(all_lat), f"ms (n={len(all_lat)})"),
        **tail(all_lat, "read"),
        "capacity_qps": (capacity * QUERIES, "1/s"),
        "capacity_rps": (capacity, "1/s"),
        "failed_frac": (failed / max(attempted, 1), "ratio"),
        "rejected": (sum(r.rejected for r in reads), "count"),
        "unanswered": (hung, "count"),
        "checked": (checked, "count"),
        "compactions": (compactions, "count"),
        "setups": (len(setups), "count"),
        "cache_hit_rate": (_hit_rate(cache0, cache1), "ratio"),
        "generator_late_p50_ms": (median(lateness), "ms"),
        "generator_late_max_ms": (max(lateness), "ms"),
    }
    done_writes = [(w.end - w.due) * 1e3 for w in writes if w.ok]
    if done_writes:
        outcome.report["write_p50_ms"] = (median(done_writes), f"ms (n={len(done_writes)})")
        outcome.report.update(tail(done_writes, "write"))
    if trace:
        outcome.layers = traced(workload, spec, seed, seconds, mins, maxs, side, warm, capacity,
                                out_dir)
    return outcome


def traced(workload, spec, seed, seconds, mins, maxs, side, warm, untraced_capacity, out_dir):
    """The traced pass: a fresh service with a ``Tracer`` installed and
    every public entry point wrapped, the same phases for ``seconds``."""
    tracer = Tracer()
    service = build(spec, mins, maxs, warm, tracer=tracer)
    tracer.clear()
    stream = Stream(mins, maxs, side, spec, np.random.default_rng([seed, 2]))
    cache0, epoch0 = service.cache.stats(), service.epoch
    with tracing.instrumented(tracer):
        client, window, sat = _phases(service, spec, stream, seconds, sample_churn=spec.churn)
    cache1, epoch1 = service.cache.stats(), service.epoch
    close(service, client.hung())

    t0, t1 = window
    roots = tracing.spans_in(tracer, t0, t1)
    ops = sum(1 for r in client.reads if r.answered) + len(client.writes)
    layers, self_s = tracing.layer_metrics(roots, t0, t1, ops)
    layers["serve.cache_hit_rate"] = _hit_rate(cache0, cache1)
    layers["serve.epochs"] = (epoch1 - epoch0) / max(ops, 1)
    layers["serve.rejected"] = sum(r.rejected for r in client.reads) / max(ops, 1)
    if client.churn_samples:
        delta, drift, tomb = np.mean(np.array(client.churn_samples), axis=0)
        layers.update({
            "churn.delta_batches": float(delta),
            "churn.drift_factor": float(drift),
            "churn.tombstone_share": float(tomb),
        })
    layers["obs.trace_overhead"] = untraced_capacity / _capacity(client, sat) - 1.0
    tracing.export(out_dir / "trace.json", workload, seed, roots, t0, t1, layers, self_s)
    return layers
