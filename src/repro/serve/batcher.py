"""Micro-batch formation and result scatter.

Per-launch overhead dominates small requests (the perfmodel charges a
fixed ``GPU_LAUNCH_OVERHEAD`` per cast, exactly the economics that drive
RTNN- and RTSpatial-style engines to coalesce logical queries into one
launch), so the scheduler merges *compatible* pending requests — same
predicate and same pinned ``k`` — into one ``RTSIndex.query()`` call.

Coalescing takes a maximal **prefix run** of the FIFO queue rather than
cherry-picking compatible requests from anywhere in it: execution order
stays exactly admission order, which keeps the service's launch sequence
(and therefore its k-prediction RNG consumption, counters and simulated
times) bit-identical to a serial client running the same requests
directly against the index.

Batching is work-conserving: the scheduler never waits for stragglers.
A batch is whatever compatible prefix queued up while the previous
batch ran, so a lone request on an idle service launches at once and
coalescing grows with load on its own.

Scatter relies on the canonical query-major pair order: a batch
concatenates payloads in request order, so request *i* owns the
contiguous global query-id range ``[offset_i, offset_i + n_i)`` and its
pair slice is found with two ``searchsorted`` probes — no per-pair work.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import QueryResult
from repro.serve.request import QueryRequest, concat_payloads


def take_compatible(pending, max_batch: int) -> list[QueryRequest]:
    """Pop the maximal compatible prefix run (up to ``max_batch``) off the
    pending deque. The caller must hold the queue lock and guarantee the
    deque is non-empty."""
    first = pending.popleft()
    batch = [first]
    key = first.batch_key()
    while pending and len(batch) < max_batch and pending[0].batch_key() == key:
        batch.append(pending.popleft())
    return batch


def execute_batch(index, batch: list[QueryRequest], planner=None) -> QueryResult:
    """Run one coalesced launch for ``batch`` against ``index`` (the
    captured snapshot). Payloads are concatenated in request order.
    ``planner`` is forwarded to :meth:`RTSIndex.query` (the service's
    scheduler passes its configured planning mode)."""
    first = batch[0]
    payload = concat_payloads(first.predicate, [r.payload for r in batch])
    return index.query(first.predicate, payload, k=first.k, planner=planner)


def split_batch(result: QueryResult, batch: list[QueryRequest], epoch: int) -> list[QueryResult]:
    """Scatter a batched result into per-request :class:`QueryResult`\\ s.

    A single-request batch keeps the underlying pairs, phases, counters
    and meta untouched (the property the exact gate's serving replays
    check bit-for-bit) but wraps them in a *fresh* :class:`QueryResult`: the
    scheduler caches and annotates what this function returns, and
    annotating the execution result in place would leak serving
    bookkeeping into an object other code may still hold (and a stale
    ``epoch``/``batch_size`` already present in its meta — e.g. on a
    result that transited another serving layer — would survive a
    ``setdefault`` and misreport *this* batch). The serving fields are
    therefore set unconditionally on the copy. For larger batches each
    request gets its pair slice with query ids rebased to its own
    payload, simulated phase times attributed proportionally to its
    share of the batch's queries, and the batch totals preserved in
    ``meta``.
    """
    n_total = sum(r.n_queries for r in batch)
    if len(batch) == 1:
        return [
            QueryResult.from_canonical(
                result.rect_ids,
                result.query_ids,
                result.phases,
                {**result.meta, "epoch": epoch, "batch_size": 1, "cache_hit": False},
            )
        ]

    out = []
    offset = 0
    for req in batch:
        lo = int(np.searchsorted(result.query_ids, offset, side="left"))
        hi = int(np.searchsorted(result.query_ids, offset + req.n_queries, side="left"))
        share = req.n_queries / n_total if n_total else 0.0
        phases = {name: v * share for name, v in result.phases.items()}
        meta = {
            "epoch": epoch,
            "batch_size": len(batch),
            "batch_n_queries": n_total,
            "batch_sim_time": result.sim_time,
            "cache_hit": False,
        }
        if "k" in result.meta:
            meta["k"] = result.meta["k"]
        out.append(
            QueryResult(
                result.rect_ids[lo:hi],
                result.query_ids[lo:hi] - offset,
                phases,
                meta,
            )
        )
        offset += req.n_queries
    return out
