"""Per-ray traversal work counters.

The RT core is a BVH-traversal ASIC; its work is measured in the unit
operations the performance model prices:

- ``nodes_visited[i]`` — ray-AABB slab tests ray *i* performed against BVH
  nodes (internal and leaf), the hardware-traversal unit;
- ``is_invocations[i]`` — IsIntersection shader launches for ray *i*
  (these run on the SM, not the RT core, on real hardware);
- ``results_emitted[i]`` — result-queue appends by ray *i*'s shaders.

Because OptiX uses a single-ray programming model (paper §2.4), per-ray
counters are exactly per-thread workloads; warp-level latency aggregation
happens in :mod:`repro.perfmodel`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class TraversalStats:
    """Work counters for a launch of *n_rays* rays."""

    __slots__ = ("nodes_visited", "is_invocations", "results_emitted")

    def __init__(self, n_rays: int):
        self.nodes_visited = np.zeros(n_rays, dtype=np.int64)
        self.is_invocations = np.zeros(n_rays, dtype=np.int64)
        self.results_emitted = np.zeros(n_rays, dtype=np.int64)

    @property
    def n_rays(self) -> int:
        return len(self.nodes_visited)

    def count_nodes(self, ray_idx: np.ndarray) -> None:
        """Record one node visit per entry of ``ray_idx`` (repeats allowed)."""
        if len(ray_idx):
            self.nodes_visited += np.bincount(ray_idx, minlength=self.n_rays)

    def count_is(self, ray_idx: np.ndarray) -> None:
        """Record one IS-shader invocation per entry of ``ray_idx``."""
        if len(ray_idx):
            self.is_invocations += np.bincount(ray_idx, minlength=self.n_rays)

    def count_results(self, ray_idx: np.ndarray) -> None:
        """Record one emitted result per entry of ``ray_idx``."""
        if len(ray_idx):
            self.results_emitted += np.bincount(ray_idx, minlength=self.n_rays)

    def merge(self, other: "TraversalStats") -> None:
        """Accumulate another launch over the same ray set (e.g. per IAS
        instance) into this one."""
        if other.n_rays != self.n_rays:
            raise ValueError("cannot merge stats over different ray counts")
        self.nodes_visited += other.nodes_visited
        self.is_invocations += other.is_invocations
        self.results_emitted += other.results_emitted

    def totals(self) -> dict[str, int]:
        """Aggregate counters (for reporting and quick assertions)."""
        return {
            "rays": int(self.n_rays),
            "nodes_visited": int(self.nodes_visited.sum()),
            "is_invocations": int(self.is_invocations.sum()),
            "results_emitted": int(self.results_emitted.sum()),
        }

    def scatter_from(self, other: "TraversalStats", ray_indices: np.ndarray) -> None:
        """Accumulate a *shard* launch into this logical launch.

        ``other`` holds counters for a subset of this launch's rays;
        ``ray_indices[i]`` is the logical (global) ray id of the shard's
        local ray *i*. Counter-preserving: after scattering every shard of
        a partition, per-ray counters equal those of the unsharded launch.
        """
        ray_indices = np.asarray(ray_indices, dtype=np.int64)
        if other.n_rays != len(ray_indices):
            raise ValueError("shard stats and ray index map must align")
        self.nodes_visited[ray_indices] += other.nodes_visited
        self.is_invocations[ray_indices] += other.is_invocations
        self.results_emitted[ray_indices] += other.results_emitted

    def __repr__(self) -> str:
        t = self.totals()
        return (
            f"TraversalStats(rays={t['rays']}, nodes={t['nodes_visited']}, "
            f"is={t['is_invocations']}, results={t['results_emitted']})"
        )


def merge_shard_stats(
    n_rays: int,
    parts: Iterable[tuple["TraversalStats", np.ndarray | Sequence[int]]],
) -> TraversalStats:
    """Reassemble per-shard counters into one logical-launch counter set.

    ``parts`` pairs each shard's :class:`TraversalStats` with the global
    ray indices its local rays map to (the shard's slice of the logical
    query batch). The result is what a single unsharded launch would have
    recorded, so the performance model prices sharded and serial execution
    identically — the invariant the parallel executor relies on.
    """
    out = TraversalStats(n_rays)
    for stats, ray_indices in parts:
        out.scatter_from(stats, np.asarray(ray_indices, dtype=np.int64))
    return out
