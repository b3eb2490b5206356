"""The OptiX-like shader pipeline (paper §2.4).

An RT program is a set of callbacks:

- **RayGen** — the entry point that casts rays. In this simulator the
  caller *is* the RayGen shader: it builds a ray batch and calls
  :meth:`Pipeline.launch` (the analogue of ``optixTrace`` inside a launch
  of one thread per ray).
- **IsIntersection** — invoked whenever traversal reaches a primitive the
  ray *potentially* hits. Receives an :class:`IsContext` and returns a
  boolean accept mask (the analogue of ``optixReportIntersection``).
- **AnyHit** — invoked on every accepted intersection.
- **ClosestHit** — invoked once per ray on the accepted intersection with
  the smallest committed t.
- **Miss** — invoked for rays with no accepted intersection.

Shaders receive *batched* contexts for vectorization, but the semantics —
and every recorded statistic — are per ray, as the single-ray programming
model prescribes. Like OptiX, shaders must not rely on any cross-ray
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.geometry.ray import Rays, ray_aabb_interval
from repro.obs.tracer import counter_snapshot, record_delta
from repro.rtcore.gas import GeometryAS
from repro.rtcore.ias import InstanceAS
from repro.rtcore.stats import TraversalStats


@dataclass
class IsContext:
    """Everything an IsIntersection / AnyHit shader may query.

    Mirrors the OptiX device API: ``prim_ids`` is
    ``optixGetPrimitiveIndex()`` (local to the hit GAS), ``instance_ids``
    is ``optixGetInstanceId()``, ``ray_rows`` identifies the casting
    thread, ``payload`` is the per-ray payload registers, ``rays`` exposes
    origin/direction, and ``t_enter``/``aabb_hit`` describe the test of
    the candidate's ray against the candidate's own primitive AABB, which
    a potential hit (:class:`~repro.rtcore.kernel.Candidates`) may miss.

    The launch computes both columns with one
    :func:`~repro.geometry.ray.ray_aabb_interval` call over all its
    candidate pairs, so ``t_enter`` has that call's dtype: the
    coordinate dtype, or float64 when any candidate's ray has a zero
    direction component.
    """

    ray_rows: np.ndarray
    prim_ids: np.ndarray
    instance_ids: np.ndarray
    t_enter: np.ndarray
    aabb_hit: np.ndarray
    rays: Rays
    payload: Optional[np.ndarray]
    stats: TraversalStats

    def __len__(self) -> int:
        return len(self.ray_rows)


#: An IS shader maps a context to an accept mask (or None = accept every
#: candidate whose AABB the ray actually hits, the hardware default).
IsShader = Callable[[IsContext], Optional[np.ndarray]]
HitShader = Callable[[IsContext], None]
MissShader = Callable[[np.ndarray, Optional[np.ndarray]], None]


@dataclass
class ShaderPrograms:
    """The shader binding table of a pipeline."""

    intersection: Optional[IsShader] = None
    any_hit: Optional[HitShader] = None
    closest_hit: Optional[HitShader] = None
    miss: Optional[MissShader] = None


class LaunchResult:
    """Committed intersections and work counters of one launch."""

    __slots__ = ("ray_rows", "prim_ids", "instance_ids", "t_hit", "stats")

    def __init__(self, ray_rows, prim_ids, instance_ids, t_hit, stats):
        self.ray_rows = ray_rows
        self.prim_ids = prim_ids
        self.instance_ids = instance_ids
        self.t_hit = t_hit
        self.stats = stats

    def __len__(self) -> int:
        return len(self.ray_rows)


class Pipeline:
    """A compiled RT pipeline bound to one traversable (GAS or IAS)."""

    def __init__(self, traversable: GeometryAS | InstanceAS, programs: ShaderPrograms):
        self.traversable = traversable
        self.programs = programs

    def launch(
        self,
        rays: Rays,
        payload: Optional[np.ndarray] = None,
        stats: Optional[TraversalStats] = None,
        tracer=None,
    ) -> LaunchResult:
        """Cast ``rays`` and run the shader table over the hits.

        ``stats`` (one slot per ray) lets several launches accumulate
        into one set of counters. ``tracer`` records the launch as a
        ``pipeline.launch`` span carrying the counter deltas of the
        whole launch, traversal and shaders included.
        """
        if tracer is not None and tracer.enabled:
            if stats is None:
                stats = TraversalStats(len(rays))
            with tracer.span("pipeline.launch", n_rays=len(rays)) as sp:
                before = counter_snapshot(stats)
                out = self._launch(rays, payload, stats, tracer)
                record_delta(sp, before, stats)
                sp.attrs["n_hits"] = len(out)
            return out
        return self._launch(rays, payload, stats, None)

    def _launch(
        self,
        rays: Rays,
        payload: Optional[np.ndarray],
        stats: Optional[TraversalStats],
        tracer,
    ) -> LaunchResult:
        m = len(rays)
        if stats is None:
            stats = TraversalStats(m)
        if payload is not None and len(payload) != m:
            raise ValueError("payload must have one row per ray")

        cand = self.traversable.traverse(
            rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats, tracer=tracer
        )
        ray_rows, prim_ids = cand.rows, cand.prims
        if len(cand):
            box_mins, box_maxs = self.traversable.prim_boxes(cand)
        else:
            box_mins = box_maxs = rays.origins[:0]
        t_enter, _, aabb_hit = ray_aabb_interval(
            rays.origins[ray_rows], rays.dirs[ray_rows],
            rays.tmins[ray_rows], rays.tmaxs[ray_rows], box_mins, box_maxs,
        )
        # A launch into a bare GAS has no instances: its candidates
        # report instance id 0.
        instance_ids = cand.instance_ids
        if instance_ids is None:
            instance_ids = np.zeros(len(cand), dtype=np.int64)

        ctx = IsContext(
            ray_rows=ray_rows,
            prim_ids=prim_ids,
            instance_ids=instance_ids,
            t_enter=t_enter,
            aabb_hit=aabb_hit,
            rays=rays,
            payload=payload,
            stats=stats,
        )

        if self.programs.intersection is not None:
            accept = self.programs.intersection(ctx)
            if accept is None:
                accept = aabb_hit
        else:
            accept = aabb_hit
        accept = np.asarray(accept, dtype=bool)
        if accept.shape != ray_rows.shape:
            raise ValueError("IS shader must return one accept flag per candidate")

        committed = IsContext(
            ray_rows=ray_rows[accept],
            prim_ids=prim_ids[accept],
            instance_ids=instance_ids[accept],
            t_enter=t_enter[accept],
            aabb_hit=aabb_hit[accept],
            rays=rays,
            payload=payload,
            stats=stats,
        )
        stats.count_results(committed.ray_rows)

        if self.programs.any_hit is not None and len(committed):
            self.programs.any_hit(committed)

        if self.programs.closest_hit is not None and len(committed):
            # Committed t is clamped to the search interval start, the
            # hardware's committed-hit parameter for origin-inside hits.
            t_commit = np.maximum(committed.t_enter, rays.tmins[committed.ray_rows])
            order = np.lexsort((t_commit, committed.ray_rows))
            first = np.ones(len(order), dtype=bool)
            first[1:] = committed.ray_rows[order][1:] != committed.ray_rows[order][:-1]
            sel = order[first]
            self.programs.closest_hit(
                IsContext(
                    ray_rows=committed.ray_rows[sel],
                    prim_ids=committed.prim_ids[sel],
                    instance_ids=committed.instance_ids[sel],
                    t_enter=committed.t_enter[sel],
                    aabb_hit=committed.aabb_hit[sel],
                    rays=rays,
                    payload=payload,
                    stats=stats,
                )
            )

        if self.programs.miss is not None:
            hit_mask = np.zeros(m, dtype=bool)
            hit_mask[committed.ray_rows] = True
            missed = np.nonzero(~hit_mask)[0]
            if len(missed):
                self.programs.miss(missed, payload)

        t_commit = np.maximum(committed.t_enter, rays.tmins[committed.ray_rows])
        return LaunchResult(
            committed.ray_rows,
            committed.prim_ids,
            committed.instance_ids,
            t_commit,
            stats,
        )
