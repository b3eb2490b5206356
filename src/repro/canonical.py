"""The canonical (query, prim) pair order, in one place.

Every layer that materializes result pairs — :class:`~repro.core.result.
QueryResult`, the collecting handler, the shard merge in
:mod:`repro.parallel.executor`, the serving batcher's scatter, the
brute-force ``join_*`` oracles in :mod:`repro.geometry` — must agree on a
single total order, because downstream code binary-searches
(``np.searchsorted``) and diffs pair lists positionally. That order is
**query-major**: primary key query id ascending, secondary key rect id
ascending (docs/PERFMODEL.md).

The order is computed on one packed int64 key per pair,
``(q - q.min()) * M + (r - r.min())`` with ``M = r.max() - r.min() + 1``:
a single-key sort is several times cheaper than a two-key
``np.lexsort`` and yields the same order. Ids are taken as int64; if the
two id spans multiplied do not fit in int64 the functions raise
``ValueError`` rather than wrap.

A shard merge once concatenated per-shard pair lists without re-sorting,
which is exactly the bug class this module (and checker RTS003) exists
to prevent: sorting pairs ad hoc invites swapped keys or skipped
normalization. Route through :func:`canonical_pair_order` /
:func:`canonical_pairs` instead; ``repro.analysis`` flags raw
``np.lexsort`` calls in the pair-handling packages.
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)


def _pair_keys(
    rect_ids: np.ndarray, query_ids: np.ndarray
) -> tuple[np.ndarray, np.int64, np.int64, np.int64]:
    """``(key, m, q_lo, r_lo)``: one int64 key per pair, query-major.

    ``key = (q - q_lo) * m + (r - r_lo)`` orders pairs exactly as the
    lexicographic ``(q, r)`` order does, because ``0 <= r - r_lo < m``.
    """
    r = np.asarray(rect_ids, dtype=np.int64)
    q = np.asarray(query_ids, dtype=np.int64)
    if r.shape != q.shape:
        raise ValueError(f"pair arrays differ in shape: {r.shape} vs {q.shape}")
    if r.size == 0:
        zero = np.int64(0)
        return r, np.int64(1), zero, zero
    q_lo, r_lo = q.min(), r.min()
    q_span = int(q.max()) - int(q_lo) + 1
    m = int(r.max()) - int(r_lo) + 1
    if q_span * m > _INT64_MAX:
        raise ValueError(
            f"pair ids span {q_span} queries x {m} rects, which overflows "
            "an int64 sort key"
        )
    # The differences fit in int64 (checked above), so the wrapping int64
    # subtraction yields them exactly even for ids near the int64 limits.
    key = q - q_lo
    key *= m
    key += r - r_lo
    return key, np.int64(m), q_lo, r_lo


def canonical_pair_order(rect_ids: np.ndarray, query_ids: np.ndarray) -> np.ndarray:
    """The permutation sorting ``(query, rect)`` pairs query-major.

    Primary key ``query_ids`` ascending, secondary key ``rect_ids``
    ascending; the sort is stable, so equal pairs keep input order.
    """
    key = _pair_keys(rect_ids, query_ids)[0]
    return np.argsort(key, kind="stable")


def canonical_pairs(
    rect_ids: np.ndarray, query_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(rect_ids, query_ids)`` as int64 arrays in canonical order."""
    key, m, q_lo, r_lo = _pair_keys(rect_ids, query_ids)
    q, r = np.divmod(np.sort(key), m)
    q += q_lo
    r += r_lo
    return r, q
