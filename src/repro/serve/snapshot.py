"""Epoch-based snapshot publication (single writer, many readers).

The manager owns the *current* published snapshot — an
:class:`~repro.core.index.RTSIndex` that, once published, is never
structurally mutated again. A mutation forks the current snapshot
(copy-on-write, see :meth:`RTSIndex.fork`), applies the operation to the
private fork, and publishes the fork with an atomic reference swap; the
index's own ``epoch`` counter (bumped by every mutation) names the new
version. Readers that captured the old reference keep traversing a
structure no writer will ever touch — there is no torn state to observe
and nothing to lock on the read path.

This is the library analogue of the paper's §4.2 update path: LibRTS
keeps queries running by making updates cheap refits on *existing*
structures; a serving system additionally needs updates to be *invisible*
until complete, which the fork-and-publish step adds on top.
"""

from __future__ import annotations

from repro import tsan
from repro.core.index import RTSIndex
from repro.lockorder import make_lock


@tsan.instrument(containers=("_history",), atomic=("_current",))
class EpochSnapshots:
    """Serializes writers and publishes immutable per-epoch snapshots.

    Parameters
    ----------
    index:
        The seed index; it becomes the epoch-``index.epoch`` snapshot
        as-is (no copy). The caller must stop mutating it directly —
        all mutations go through :meth:`apply`.
    retain_all:
        Keep a reference to every published snapshot, queryable via
        :meth:`at`. Off by default (it pins every epoch's copied
        bookkeeping arrays in memory); the concurrency tests switch it
        on to replay served responses against their exact epoch.
    """

    def __init__(self, index: RTSIndex, retain_all: bool = False):
        self._current = index
        # Rank 20: held only across fork+apply+publish; the service lock
        # (rank 10) is never held at that point, and op() reaches at
        # most the metrics/pool leaf locks.
        self._write_lock = make_lock("serve.snapshot")
        self.retain_all = bool(retain_all)
        self._history: dict[int, RTSIndex] = (
            {index.epoch: index} if self.retain_all else {}
        )

    @property
    def current(self) -> RTSIndex:
        """The latest published snapshot (atomic reference read).

        Deliberately lock-free: publication is a single reference store
        under the GIL, and a published snapshot is immutable, so any
        reference a reader observes is fully consistent — this is the
        whole point of the epoch design. The runtime sanitizer marks the
        field atomic for the same reason.
        """
        return self._current

    @property
    def epoch(self) -> int:
        return self.current.epoch

    def apply(self, op) -> object:
        """Run one mutation ``op(index)`` on a private fork of the current
        snapshot and publish the fork. Writers are serialized by a lock;
        the fork is published only if ``op`` succeeds, so a failed
        mutation (bad ids, degenerate rectangles) leaves the published
        snapshot untouched."""
        with self._write_lock:
            fork = self._current.fork()
            out = op(fork)
            self._current = fork
            if self.retain_all:
                self._history[fork.epoch] = fork
            return out

    def at(self, epoch: int) -> RTSIndex:
        """The retained snapshot published under ``epoch``.

        Requires ``retain_all``; an epoch never published raises
        ``KeyError``."""
        if not self.retain_all:
            raise RuntimeError("snapshot history not retained; pass retain_all=True")
        # Under the write lock: apply() inserts into _history while
        # publishing.
        with self._write_lock:
            return self._history[epoch]

    def __repr__(self) -> str:
        with self._write_lock:
            retained = len(self._history)
        return f"EpochSnapshots(epoch={self.epoch}, retained={retained})"
