"""Brute-force answers, independent of the index under test.

:class:`Oracle` evaluates the closed-box predicates of the paper's
Definitions 1-3 on the same float32 coordinates the index stores. For a
query it gathers every rectangle whose min corner lies where a match
could start — a uniform grid of cells as wide as the widest live
rectangle narrows that down — and tests each candidate exactly: no tree,
no rays. Answers come back as ``(rect_ids, query_ids)`` in the
repository's canonical query-major order, so they compare to a
``QueryResult`` with ``np.array_equal``.

:class:`Mirror` is the benchmark's own copy of the live set in the
service's public-id space, replaying the writes it sent.
"""

from __future__ import annotations

import numpy as np

#: Queries per vectorized scan (bounds the candidate arrays).
CHUNK = 256


class Oracle:
    """Exact answers over one fixed set of live rectangles."""

    def __init__(self, ids: np.ndarray, mins: np.ndarray, maxs: np.ndarray):
        lo64 = mins.astype(np.float64)
        widths = maxs.astype(np.float64) - lo64
        # The widest rectangle bounds how far below a query a matching
        # rectangle's min corner can lie; the small margin keeps the
        # candidate set a superset under float rounding.
        self.reach = float(widths.max()) + 1e-6 if len(widths) else 1.0
        self.origin = lo64.min(axis=0) if len(widths) else np.zeros(2)
        cells = self._cells(lo64)
        self.shape = cells.max(axis=0) + 1 if len(widths) else np.ones(2, dtype=np.int64)
        key = cells[:, 0] * self.shape[1] + cells[:, 1]
        order = np.argsort(key, kind="stable")
        self.ids = np.asarray(ids, dtype=np.int64)[order]
        self.mins = mins[order]
        self.maxs = maxs[order]
        self.cell_start = np.searchsorted(key[order], np.arange(self.shape[0] * self.shape[1] + 1))

    def _cells(self, xy: np.ndarray) -> np.ndarray:
        """Grid cell (column, row) of each point; cells are ``reach`` wide."""
        return np.floor((xy - self.origin) / self.reach).astype(np.int64)

    def _scan(self, lo, hi, test):
        """Pairs (rect id, query) passing ``test`` among rectangles whose
        min corner lies in the box ``[lo[q], hi[q]]`` (float64)."""
        rect_parts, query_parts = [], []
        top = self.shape - 1
        for c0 in range(0, len(lo), CHUNK):
            c_lo = np.clip(self._cells(lo[c0:c0 + CHUNK]), 0, top)
            c_hi = np.clip(self._cells(hi[c0:c0 + CHUNK]), 0, top)
            # One contiguous run of the cell-sorted arrays per (query,
            # grid column): rows c_lo..c_hi of that column.
            n_cols = np.maximum(c_hi[:, 0] - c_lo[:, 0] + 1, 0)
            q = np.repeat(np.arange(len(n_cols), dtype=np.int64), n_cols)
            col = c_lo[q, 0] + np.arange(len(q)) - np.repeat(np.cumsum(n_cols) - n_cols, n_cols)
            first = self.cell_start[col * self.shape[1] + c_lo[q, 1]]
            last = self.cell_start[col * self.shape[1] + c_hi[q, 1] + 1]
            counts = np.maximum(last - first, 0)
            q = np.repeat(q, counts)
            starts = np.repeat(first - (np.cumsum(counts) - counts), counts)
            cand = starts + np.arange(len(q), dtype=np.int64)
            keep = test(cand, q + c0)
            rect_parts.append(self.ids[cand[keep]])
            query_parts.append(q[keep] + c0)
        rects = np.concatenate(rect_parts) if rect_parts else np.empty(0, np.int64)
        queries = np.concatenate(query_parts) if query_parts else np.empty(0, np.int64)
        order = np.lexsort((rects, queries))
        return rects[order], queries[order]

    def points(self, pts: np.ndarray):
        """Definition 1: rectangles containing each point."""
        p = pts.astype(np.float64)

        def test(c, q):
            return ((self.mins[c] <= pts[q]) & (pts[q] <= self.maxs[c])).all(axis=1)

        return self._scan(p - self.reach, p, test)

    def contains(self, s_mins: np.ndarray, s_maxs: np.ndarray):
        """Definition 2: rectangles containing each query rectangle."""

        def test(c, q):
            return (
                (self.mins[c] <= s_mins[q]) & (s_mins[q] < s_maxs[q]) & (s_maxs[q] <= self.maxs[c])
            ).all(axis=1)

        return self._scan(s_maxs.astype(np.float64) - self.reach, s_mins.astype(np.float64), test)

    def intersects(self, s_mins: np.ndarray, s_maxs: np.ndarray):
        """Definition 3: rectangles intersecting each query rectangle."""

        def test(c, q):
            return ((self.mins[c] <= s_maxs[q]) & (self.maxs[c] >= s_mins[q])).all(axis=1)

        return self._scan(s_mins.astype(np.float64) - self.reach, s_maxs.astype(np.float64), test)

    def answer(self, kind: str, payload):
        """Dispatch on the request kind; ``payload`` is the points array
        or a ``(mins, maxs)`` pair."""
        if kind == "point":
            return self.points(payload)
        if kind == "contains":
            return self.contains(*payload)
        return self.intersects(*payload)


class Mirror:
    """The live rectangles by public id, replaying the benchmark's writes
    with the service's semantics: insert appends new ids, delete kills,
    update moves (and resurrects a dead id)."""

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        self.mins = mins.copy()
        self.maxs = maxs.copy()
        self.live = np.ones(len(mins), dtype=bool)

    @property
    def n_ids(self) -> int:
        return len(self.live)

    def apply(self, op: str, ids, mins=None, maxs=None) -> None:
        if op == "insert":
            self.mins = np.concatenate([self.mins, mins])
            self.maxs = np.concatenate([self.maxs, maxs])
            self.live = np.concatenate([self.live, np.ones(len(mins), dtype=bool)])
        elif op == "delete":
            self.live[ids] = False
        else:
            self.mins[ids] = mins
            self.maxs[ids] = maxs
            self.live[ids] = True

    def oracle(self) -> Oracle:
        ids = np.flatnonzero(self.live)
        return Oracle(ids, self.mins[ids], self.maxs[ids])
