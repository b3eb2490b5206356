"""Multi-process sharded serving over shared-memory epoch snapshots.

This is the "break the GIL" serving architecture: N worker processes,
each attaching every published epoch zero-copy through
:mod:`repro.serve.shm`, a consistent-hash router fanning shard tasks
across them, and the parent scatter-merging shard results through the
existing canonical pair order. The contract is the same transparency the
in-process scheduler guarantees — responses (pairs, per-phase simulated
times, counters, k) are **bit-identical** to single-process serving —
while simulated throughput scales with workers because independent
batches (and the shards of large batches) execute on parallel traversal
units.

How equivalence is engineered, piece by piece:

- **Shard kernels** are the exact closures the in-process sharded path
  runs (:func:`~repro.core.queries.point.make_point_work`,
  :func:`~repro.core.queries.contains.make_contains_work`,
  :class:`~repro.core.queries.intersects.IntersectsContext`), executed
  against an adopted shared-memory index whose buffers are byte-wise
  equal to the owner's. Row slicing commutes with every operation in
  them, so shard replies equal in-process shard results.
- **Counters** come back as per-ray arrays and are scatter-merged with
  :func:`~repro.rtcore.stats.merge_shard_stats` — integer addition into
  disjoint slots, so the merged launch counters equal a serial launch's.
- **Phases** are computed centrally from the merged counters on the
  owning snapshot (same platform, same node counts), reproducing the
  serial float arithmetic exactly.
- **k prediction** consumes the snapshot's RNG, so the dispatcher
  resolves k centrally, in admission order, on the owning snapshot —
  exactly when the in-process scheduler would have — and ships the
  pinned k to workers.

Epoch lifecycle: the writer publishes each epoch as one shared-memory
segment (create → copy → manifest); workers attach on the first task of
that epoch and drop attachments the dispatcher no longer lists as live.
Published epochs are refcounted by in-flight tasks; once superseded and
idle they are unlinked (POSIX deferred delete keeps existing worker
mappings valid). ``close()`` unlinks everything and asserts nothing
leaked.

Simulated-time accounting: the wave makespan. Each wave of batches is
priced as the serial prefix every dispatch pays once per intersects
batch (k prediction + query-side BVH build) plus the busiest worker's
clock — the sum over its assigned tasks of the shard launch time (from
that shard's own counters) plus the per-task dispatch tax
(:data:`~repro.perfmodel.calibration.PROC_DISPATCH_SIM_S` and the
payload-byte cost). One worker degenerates to the single-process cost
plus the dispatch tax; N workers overlap independent launches, which is
where the QPS scaling comes from (launch overhead dominates micro-batch
serving, and overlapping launches is the only way to amortize it across
*different* batches).
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import deque
from hashlib import sha1
from multiprocessing import connection, get_context, resource_tracker

import numpy as np

from repro.core.index import Predicate, RTSIndex
from repro.core.queries.contains import make_contains_work
from repro.core.queries.intersects import IntersectsContext, resolve_k
from repro.core.queries.point import make_point_work
from repro.core.result import QueryResult
from repro.geometry.boxes import Boxes
from repro.lockorder import make_lock
from repro.obs.tracer import NULL_TRACER
from repro.parallel.executor import (
    MIN_PROC_SHARD,
    process_priced_shards,
    shard_queries,
)
from repro.perfmodel import calibration as C
from repro.perfmodel.build import BuildModel
from repro.perfmodel.querycost import rt_cast_cost
from repro.rtcore.stats import TraversalStats, merge_shard_stats
from repro.serve.cache import query_digest
from repro.serve.errors import WorkerFailed
from repro.serve.shm import adopt_index, publish_index

#: Times a task may be resubmitted after worker deaths before the batch
#: fails with :class:`WorkerFailed`.
MAX_TASK_ATTEMPTS = 3

#: Per-worker IntersectsContext cache entries (keyed by
#: ``(epoch, digest, k)``); oldest evicted beyond this.
CTX_CACHE_SIZE = 8


class HashRing:
    """Consistent-hash router over worker slots.

    ``vnodes`` virtual nodes per slot smooth the assignment; hashing is
    SHA-1 so routing is deterministic across processes and runs (the
    wave-makespan accounting depends on assignment being a pure function
    of the task key). Slots survive worker death — a respawned worker
    takes over its predecessor's slot, so resubmitted shards route
    identically.
    """

    def __init__(self, n_slots: int, vnodes: int = 64):
        points = []
        for slot in range(n_slots):
            for v in range(vnodes):
                h = int.from_bytes(
                    sha1(f"{slot}:{v}".encode()).digest()[:8], "big"
                )
                points.append((h, slot))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._slots = [s for _, s in points]

    def slot_for(self, key: str) -> int:
        h = int.from_bytes(sha1(key.encode()).digest()[:8], "big")
        i = bisect_right(self._hashes, h) % len(self._hashes)
        return self._slots[i]


# --- wire helpers ------------------------------------------------------------


def _stats_to_wire(stats: TraversalStats) -> dict:
    return {
        "nodes": stats.nodes_visited,
        "is_inv": stats.is_invocations,
        "res": stats.results_emitted,
    }


def _stats_from_wire(d: dict) -> TraversalStats:
    stats = TraversalStats(len(d["nodes"]))
    stats.nodes_visited[:] = d["nodes"]
    stats.is_invocations[:] = d["is_inv"]
    stats.results_emitted[:] = d["res"]
    return stats


# --- worker process ----------------------------------------------------------


def _run_worker_task(spec: dict, epochs: dict, ctxs: dict) -> dict:
    """Execute one shard task against the adopted epoch index."""
    index, _shm = epochs[spec["epoch"]]
    kind = spec["kind"]
    if kind == "rows":
        if spec["pred"] == Predicate.CONTAINS_POINT.value:
            work = make_point_work(index, spec["pts"])
            n = len(spec["pts"])
        else:
            work = make_contains_work(index, Boxes(spec["q_mins"], spec["q_maxs"]))
            n = len(spec["q_mins"])
        rect_ids, rows, stats, n_cand = work(np.arange(n, dtype=np.int64))
        out = _stats_to_wire(stats)
        out.update(rect_ids=rect_ids, rows=rows, n_cand=int(n_cand))
        return out
    # Intersects shards: build (or reuse) the prepared context, then run
    # the exact in-process shard kernel over the global index rows.
    key = (spec["epoch"], spec["digest"], spec["k"])
    ctx = ctxs.get(key)
    if ctx is None:
        q = Boxes(spec["q_mins"], spec["q_maxs"])
        ctx = ctxs[key] = IntersectsContext(index, q, spec["k"])
        while len(ctxs) > CTX_CACHE_SIZE:
            ctxs.pop(next(iter(ctxs)))
    kernel = ctx.fwd_work if kind == "fwd" else ctx.bwd_work
    rect_ids, rows, stats = kernel(spec["idx"])
    out = _stats_to_wire(stats)
    out.update(rect_ids=rect_ids, rows=rows)
    return out


def _worker_main(worker_id: int, conn) -> None:
    """Worker loop: attach epochs, run shard tasks, report results.

    Runs in a forked child. Attachments are cached per epoch and dropped
    as soon as a task's ``live`` list stops naming them; prepared
    intersects contexts are cached per ``(epoch, digest, k)``.
    """
    import traceback

    epochs: dict[int, tuple] = {}
    ctxs: dict[tuple, IntersectsContext] = {}

    def drop_epoch(epoch: int) -> None:
        _index, shm = epochs.pop(epoch)
        for key in [c for c in ctxs if c[0] == epoch]:
            ctxs.pop(key)
        shm.close()

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "close":
                break
            if kind == "manifest":
                manifest = msg[1]
                epoch = int(manifest["meta"]["epoch"])
                if epoch not in epochs:
                    # owner: cached in `epochs`; drop_epoch / the finally
                    # below close every cached attachment.
                    epochs[epoch] = adopt_index(manifest)
                continue
            # ("task", task_id, spec)
            task_id, spec = msg[1], msg[2]
            try:
                reply = _run_worker_task(spec, epochs, ctxs)
                conn.send(("ok", task_id, worker_id, reply))
            except BaseException:
                conn.send(("err", task_id, worker_id, traceback.format_exc()))
            live = spec.get("live")
            if live is not None:
                for epoch in [e for e in epochs if e not in live]:
                    drop_epoch(epoch)
    finally:
        for epoch in list(epochs):
            drop_epoch(epoch)
        conn.close()


# --- parent-side pool --------------------------------------------------------


class _Worker:
    """Parent-side handle for one worker slot."""

    __slots__ = ("slot", "process", "conn", "seen_epochs")

    def __init__(self, slot: int, process, conn):
        self.slot = slot
        self.process = process
        self.conn = conn
        #: Epochs whose manifest this worker process has been sent.
        self.seen_epochs: set[int] = set()


class ProcessPool:
    """N worker processes serving shard tasks over shared-memory epochs.

    Owned by :class:`~repro.serve.service.SpatialQueryService` when
    ``ServiceConfig.workers > 0``; usable standalone for tests. The
    parent is the only writer: it publishes epochs (``publish``),
    dispatches waves of batches (``dispatch`` — called from a single
    scheduler thread), and unlinks retired segments. The pool lock
    (rank ``serve.procpool``) guards registry and worker-table state
    only — it is never held across an IPC wait.
    """

    def __init__(self, n_workers: int, *, min_shard: int = MIN_PROC_SHARD):
        if n_workers < 1:
            raise ValueError(f"workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.min_shard = int(min_shard)
        self._lock = make_lock("serve.procpool")
        self._ctx = get_context("fork")
        # The resource tracker must exist before the first fork so every
        # worker shares it (attach/unlink bookkeeping stays balanced).
        resource_tracker.ensure_running()
        self._ring = HashRing(self.n_workers)
        #: epoch -> {"manifest", "shm", "refs", "retired"}.
        self._segments: dict[int, dict] = {}
        #: Every segment name ever created (leak assertions in tests).
        self.created_segment_names: list[str] = []
        self._name_serial = 0
        self._task_serial = 0
        self._closed = False
        self._workers: list[_Worker] = [
            self._spawn(slot) for slot in range(self.n_workers)
        ]

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot, child_conn),
            daemon=True,
            name=f"rts-serve-worker-{slot}",
        )
        proc.start()
        child_conn.close()
        return _Worker(slot, proc, parent_conn)

    def close(self) -> None:
        """Stop workers and unlink every still-published segment.

        Idempotent. After close, none of the segment names this pool
        created can be attached (the no-leak contract the tests assert).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
            segments, self._segments = self._segments, {}
        for w in workers:
            try:
                w.conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for w in workers:
            w.process.join(timeout=5.0)
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=5.0)
            w.conn.close()
        for seg in segments.values():
            seg["shm"].close()
            seg["shm"].unlink()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- epoch publication -------------------------------------------------

    def publish(self, index: RTSIndex) -> dict:
        """Publish ``index``'s current epoch as a shared-memory segment.

        Idempotent per epoch (concurrent writers may race to publish the
        snapshot they just applied; the first wins). Older epochs are
        marked retired — they are unlinked as soon as no in-flight task
        references them.

        A pool serves exactly one index lineage — epochs are its version
        numbers. Publishing a *different* index that happens to carry an
        already-published epoch raises instead of silently serving stale
        geometry (the fingerprint is O(1): length plus boundary rows).
        """
        epoch = int(index.epoch)
        fp = (
            len(index),
            index._mins[:2].tobytes() + index._maxs[-2:].tobytes(),
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessPool is closed")
            if epoch in self._segments:
                if self._segments[epoch]["fingerprint"] != fp:
                    raise ValueError(
                        f"epoch {epoch} already published with different "
                        "contents: a ProcessPool serves a single index "
                        "lineage — use a separate pool per index"
                    )
                return self._segments[epoch]["manifest"]
            while True:
                name = f"rts{os.getpid()}x{self._name_serial}"
                self._name_serial += 1
                try:
                    manifest, shm = publish_index(index, name)
                    break
                except FileExistsError:
                    continue
            self.created_segment_names.append(name)
            self._segments[epoch] = {
                "manifest": manifest,
                "shm": shm,
                "refs": 0,
                "retired": False,
                "fingerprint": fp,
            }
            # Retire relative to the newest published epoch — racing
            # writers may publish out of order, and a late-published old
            # epoch must not be treated as current.
            newest = max(self._segments)
            for e, seg in self._segments.items():
                if e < newest:
                    seg["retired"] = True
            self._unlink_retired_locked()
            return manifest

    def _unlink_retired_locked(self) -> None:
        for e in [
            e
            for e, seg in self._segments.items()
            if seg["retired"] and seg["refs"] == 0
        ]:
            seg = self._segments.pop(e)
            seg["shm"].close()
            seg["shm"].unlink()

    @property
    def live_epochs(self) -> list[int]:
        with self._lock:
            return sorted(self._segments)

    # -- wave dispatch -----------------------------------------------------

    def dispatch(self, snapshot: RTSIndex, specs: list) -> tuple[list, float]:
        """Execute one wave of batches against ``snapshot``.

        ``specs`` is a list of ``(predicate, payload, k)`` triples in
        admission order (``payload`` already normalized: an ``(n, d)``
        point array or a :class:`Boxes`). Returns ``(results, wave_sim)``
        where ``results[i]`` is the batch's :class:`QueryResult` (built
        exactly as the in-process path builds it) or an exception, and
        ``wave_sim`` is the simulated makespan of the wave.
        """
        tracer = getattr(snapshot, "tracer", NULL_TRACER)
        self.publish(snapshot)
        epoch = int(snapshot.epoch)
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessPool is closed")
            live = sorted(self._segments)
            manifest = self._segments[epoch]["manifest"]
            # Wave-level ref: a concurrent writer publishing a newer
            # epoch retires this one, but it must stay linked until every
            # worker in this wave has attached (all replies collected
            # implies all manifests were processed).
            self._segments[epoch]["refs"] += 1
        try:
            return self._dispatch_wave(
                snapshot, specs, epoch, live, manifest, tracer
            )
        finally:
            with self._lock:
                seg = self._segments.get(epoch)
                if seg is not None:
                    seg["refs"] -= 1
                self._unlink_retired_locked()

    def _dispatch_wave(
        self, snapshot, specs, epoch, live, manifest, tracer
    ) -> tuple[list, float]:
        total_nodes = snapshot.total_nodes()

        batches: list[dict] = []
        tasks: list[dict] = []
        serial_sim = 0.0

        for i, (pred, payload, k_req) in enumerate(specs):
            batch: dict = {"pred": pred, "error": None}
            batches.append(batch)
            if pred is Predicate.RANGE_INTERSECTS:
                q = payload.astype(snapshot.dtype)
                live_ids = np.nonzero(~snapshot._deleted)[0]
                n_s = len(q)
                if n_s == 0 or len(live_ids) == 0:
                    batch["kind"] = "local"
                    batch["result"] = snapshot.query(
                        pred, payload, k=k_req, planner="off"
                    )
                    serial_sim += batch["result"].sim_time
                    continue
                # k is resolved here — centrally, in admission order, on
                # the owning snapshot — so the RNG stream advances exactly
                # as in-process execution would have advanced it.
                k, k_sim = resolve_k(snapshot, q, live_ids, k_req, tracer=tracer)
                m = len(live_ids) * k
                digest = query_digest(q)
                s_f = process_priced_shards(
                    n_s,
                    self.n_workers,
                    rt_cast_cost(n_s, len(live_ids)),
                    min_shard=self.min_shard,
                )
                s_b = process_priced_shards(
                    m,
                    self.n_workers,
                    rt_cast_cost(m, n_s),
                    min_shard=self.min_shard,
                )
                f_shards = shard_queries(n_s, s_f)
                b_shards = shard_queries(m, s_b)
                batch.update(
                    kind="ix",
                    n_s=n_s,
                    m=m,
                    k=k,
                    k_sim=k_sim,
                    f_shards=f_shards,
                    b_shards=b_shards,
                    f_parts=[None] * len(f_shards),
                    b_parts=[None] * len(b_shards),
                    pending=len(f_shards) + len(b_shards),
                )
                serial_sim += k_sim + BuildModel.optix_gas_build(n_s)
                base = {
                    "epoch": epoch,
                    "q_mins": q.mins,
                    "q_maxs": q.maxs,
                    "k": k,
                    "digest": digest,
                    "live": live,
                }
                for part, shards in (("fwd", f_shards), ("bwd", b_shards)):
                    for j, idx in enumerate(shards):
                        tasks.append(
                            {
                                "batch": i,
                                "part": part,
                                "slot_idx": j,
                                "key": f"{digest}:{part}:{j}",
                                "spec": {**base, "kind": part, "idx": idx},
                            }
                        )
                continue
            # Point / Range-Contains: one row-shardable launch.
            if pred is Predicate.CONTAINS_POINT:
                pts = np.ascontiguousarray(payload, dtype=snapshot.dtype)
                n = len(pts)
            else:
                q = payload.astype(snapshot.dtype)
                n = len(q)
            if n == 0 or len(snapshot) == 0:
                batch["kind"] = "local"
                batch["result"] = snapshot.query(pred, payload, k=k_req, planner="off")
                serial_sim += batch["result"].sim_time
                continue
            digest = query_digest(payload)
            s = process_priced_shards(
                n,
                self.n_workers,
                rt_cast_cost(n, snapshot.n_rects),
                min_shard=self.min_shard,
            )
            shards = shard_queries(n, s)
            batch.update(
                kind="rows",
                n=n,
                shards=shards,
                parts=[None] * len(shards),
                pending=len(shards),
            )
            for j, idx in enumerate(shards):
                if pred is Predicate.CONTAINS_POINT:
                    spec = {"kind": "rows", "pred": pred.value, "epoch": epoch,
                            "pts": pts[idx], "live": live}
                else:
                    spec = {"kind": "rows", "pred": pred.value, "epoch": epoch,
                            "q_mins": q.mins[idx], "q_maxs": q.maxs[idx],
                            "live": live}
                tasks.append(
                    {
                        "batch": i,
                        "part": "rows",
                        "slot_idx": j,
                        "key": f"{digest}:rows:{j}",
                        "spec": spec,
                    }
                )

        worker_clock = [0.0] * self.n_workers
        if tasks:
            self._run_tasks(tasks, batches, manifest, worker_clock, snapshot)

        results = self._merge_batches(batches, snapshot, total_nodes)
        wave_sim = serial_sim + max(worker_clock, default=0.0)
        return results, wave_sim

    # -- task execution ----------------------------------------------------

    def _send_task(self, task: dict) -> None:
        # The slot lookup happens under the lock: _recover() may be
        # swapping a dead worker's slot entry from another wave's thread,
        # and an unlocked read could hand back the already-closed worker.
        with self._lock:
            worker = self._workers[task["slot"]]
        spec_epoch = task["spec"]["epoch"]
        if spec_epoch not in worker.seen_epochs:
            with self._lock:
                seg = self._segments.get(spec_epoch)
                manifest = seg["manifest"] if seg else None
            if manifest is None:
                raise WorkerFailed(f"epoch {spec_epoch} no longer published")
            worker.conn.send(("manifest", manifest))
            worker.seen_epochs.add(spec_epoch)
        worker.conn.send(("task", task["id"], task["spec"]))

    def _run_tasks(self, tasks, batches, manifest, worker_clock, snapshot) -> None:
        """Route, send and collect one wave's shard tasks.

        Routing is consistent-hash on the batch part's digest with
        round-robin shard fan-out from the home slot; each completed task
        adds its shard launch time plus the dispatch tax to its worker's
        simulated clock. Each slot keeps one task outstanding and gets
        its next only after the reply is read: a worker blocked sending
        a reply is then never also owed a task, so neither side can
        block on a full pipe while the other does. Worker death mid-wave
        resubmits that worker's outstanding task to a respawned process
        on the same slot (the epoch segment is still published, so the
        new worker attaches and the wave completes without a torn epoch).
        """
        queues: list[deque] = [deque() for _ in range(self.n_workers)]
        for task in tasks:
            # Consistent hash picks the batch part's *home* slot; shards
            # fan out round-robin from there. Affinity is preserved (the
            # same digest lands on the same workers every wave, so epoch
            # replay reuses attachments and contexts) while the shards
            # of one launch never collide on a worker — a straight
            # per-shard hash would stack ~half of an s == n_workers
            # split on one process and forfeit the makespan win.
            home = self._ring.slot_for(task["key"].rsplit(":", 1)[0])
            task["slot"] = (home + task["slot_idx"]) % self.n_workers
            task["attempts"] = 0
            task["id"] = self._task_serial
            self._task_serial += 1
            payload_bytes = sum(
                int(v.nbytes)
                for v in task["spec"].values()
                if isinstance(v, np.ndarray)
            )
            task["dispatch_sim"] = (
                C.PROC_DISPATCH_SIM_S + payload_bytes * C.PROC_PAYLOAD_BYTE_SIM_S
            )
            queues[task["slot"]].append(task)
        with self._lock:
            for slot, queue in enumerate(queues):
                if queue and not self._workers[slot].process.is_alive():
                    self._respawn_locked(slot)
        #: slot -> its one outstanding task.
        inflight: dict[int, dict] = {}
        for slot in range(self.n_workers):
            self._send_next(slot, queues, inflight)

        while inflight:
            # Snapshot the slot table under the lock each pass (a respawn
            # replaces list entries); the blocking wait stays outside it.
            with self._lock:
                conns = {self._workers[slot].conn: slot for slot in inflight}
            ready = connection.wait(list(conns), timeout=30.0)
            if not ready:
                # Nothing readable and nobody died: keep waiting (a
                # huge shard can legitimately run long on 1 CPU).
                with self._lock:
                    dead = [
                        slot
                        for slot in inflight
                        if not self._workers[slot].process.is_alive()
                    ]
                for slot in dead:
                    self._recover(slot, queues, inflight, batches)
                continue
            for conn_ in ready:
                slot = conns[conn_]
                try:
                    msg = conn_.recv()
                except (EOFError, OSError):
                    self._recover(slot, queues, inflight, batches)
                    continue
                kind, task_id = msg[0], msg[1]
                task = inflight.get(slot)
                if task is None or task["id"] != task_id:
                    continue  # reply from a pre-fault duplicate
                del inflight[slot]
                self._send_next(slot, queues, inflight)
                batch = batches[task["batch"]]
                if kind == "err":
                    if batch["error"] is None:
                        batch["error"] = WorkerFailed(
                            f"worker {msg[2]} failed shard "
                            f"{task['part']}[{task['slot_idx']}]:\n{msg[3]}"
                        )
                    continue
                reply = msg[3]
                stats = _stats_from_wire(reply)
                part = (reply["rect_ids"], reply["rows"], stats,
                        reply.get("n_cand", 0))
                if task["part"] == "rows":
                    batch["parts"][task["slot_idx"]] = part
                elif task["part"] == "fwd":
                    batch["f_parts"][task["slot_idx"]] = part
                else:
                    batch["b_parts"][task["slot_idx"]] = part
                nodes = (
                    2 * batch["n_s"]
                    if task["part"] == "bwd"
                    else snapshot.total_nodes()
                )
                worker_clock[task["slot"]] += (
                    snapshot.platform.query_time(stats, nodes)
                    + task["dispatch_sim"]
                )

    def _send_next(self, slot: int, queues: list, inflight: dict) -> None:
        """Send ``slot``'s next queued task, if any, as its outstanding one."""
        if queues[slot]:
            task = queues[slot].popleft()
            inflight[slot] = task
            self._send_task(task)

    def _respawn_locked(self, slot: int) -> None:
        old = self._workers[slot]
        old.conn.close()
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=5.0)
        self._workers[slot] = self._spawn(slot)

    def _recover(self, slot: int, queues: list, inflight: dict, batches: list) -> None:
        """A worker died: respawn its slot and resubmit its shard."""
        with self._lock:
            self._respawn_locked(slot)
        task = inflight.pop(slot, None)
        if task is not None:
            task["attempts"] += 1
            if task["attempts"] < MAX_TASK_ATTEMPTS:
                queues[slot].appendleft(task)
            else:
                batch = batches[task["batch"]]
                if batch["error"] is None:
                    batch["error"] = WorkerFailed(
                        f"shard {task['part']}[{task['slot_idx']}] lost "
                        f"{task['attempts']} workers; giving up"
                    )
        self._send_next(slot, queues, inflight)

    # -- merge -------------------------------------------------------------

    def _merge_batches(self, batches, snapshot, total_nodes) -> list:
        """Rebuild each batch's :class:`QueryResult` from its shard
        replies, exactly as the in-process query functions would."""
        results = []
        for batch in batches:
            if batch["error"] is not None:
                results.append(batch["error"])
                continue
            if batch["kind"] == "local":
                results.append(batch["result"])
                continue
            if batch["kind"] == "rows":
                parts, shards = batch["parts"], batch["shards"]
                rect_ids = np.concatenate([p[0] for p in parts])
                query_ids = np.concatenate(
                    [idx[p[1]] for p, idx in zip(parts, shards)]
                )
                stats = merge_shard_stats(
                    batch["n"], [(p[2], s) for p, s in zip(parts, shards)]
                )
                phases = {
                    "cast": snapshot.platform.query_time(stats, total_nodes)
                }
                meta = {
                    "stats": stats.totals(),
                    "stats_obj": stats,
                    "n_candidates": int(sum(p[3] for p in parts)),
                    "n_shards": len(shards),
                }
                results.append(QueryResult(rect_ids, query_ids, phases, meta))
                continue
            # Intersects: forward + backward concat in shard order, then
            # the canonicalizing QueryResult constructor — identical to
            # run_intersects_query's tail.
            f_parts, f_shards = batch["f_parts"], batch["f_shards"]
            b_parts, b_shards = batch["b_parts"], batch["b_shards"]
            fr = np.concatenate([p[0] for p in f_parts])
            fq = np.concatenate([p[1] for p in f_parts])
            br = np.concatenate([p[0] for p in b_parts])
            bq = np.concatenate([p[1] for p in b_parts])
            stats_f = merge_shard_stats(
                batch["n_s"], [(p[2], s) for p, s in zip(f_parts, f_shards)]
            )
            stats_b = merge_shard_stats(
                batch["m"], [(p[2], s) for p, s in zip(b_parts, b_shards)]
            )
            phases = {
                "k_prediction": batch["k_sim"],
                "bvh_build": BuildModel.optix_gas_build(batch["n_s"]),
                "forward_cast": snapshot.platform.query_time(
                    stats_f, total_nodes
                ),
                "backward_cast": snapshot.platform.query_time(
                    stats_b, 2 * batch["n_s"]
                ),
            }
            meta = {
                "k": int(batch["k"]),
                "forward_stats": stats_f.totals(),
                "backward_stats": stats_b.totals(),
                "forward_stats_obj": stats_f,
                "backward_stats_obj": stats_b,
                "n_shards": len(f_shards) + len(b_shards),
            }
            results.append(
                QueryResult(
                    np.concatenate([fr, br]),
                    np.concatenate([fq, bq]),
                    phases,
                    meta,
                )
            )
        return results
