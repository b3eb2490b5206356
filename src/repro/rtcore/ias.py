"""Instance Acceleration Structure (paper §2.3, Figure 2).

An IAS links GASes into a scene: each *instance* is a reference to a GAS
plus a 3x4 SRT object-to-world transform and a user-visible instance id
(``optixGetInstanceId``). During traversal the ray is transformed by the
*inverse* instance transform and redirected into the GAS, so one GAS can
be shared by many instances.

Building an IAS is lightweight — it stores no primitives, only links —
which is exactly why LibRTS can afford to rebuild it on every insertion
batch (§4.1).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.dtypes import promote64
from repro.geometry.transforms import Transform
from repro.rtcore.gas import GeometryAS
from repro.rtcore.stats import TraversalStats


class Instance:
    """One IAS entry: a GAS, its transform, and its instance id."""

    __slots__ = ("gas", "transform", "instance_id")

    def __init__(self, gas: GeometryAS, transform: Transform, instance_id: int):
        self.gas = gas
        self.transform = transform
        self.instance_id = int(instance_id)

    def world_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The GAS root box transformed into world space (AABB of the
        transformed corner set)."""
        lo, hi = self.gas.world_bounds()
        if self.transform.is_identity():
            return lo, hi
        d = len(lo)
        # All 2^d corners of the root box.
        corners = np.array(
            [[(hi if (i >> a) & 1 else lo)[a] for a in range(d)] for i in range(1 << d)]
        )
        world = self.transform.apply_points(corners)
        return world.min(axis=0), world.max(axis=0)


class InstanceHits:
    """IS candidates of an IAS launch, tagged with instance ids.

    ``rows`` index the launch rays, ``instance_ids`` identify the instance
    (what ``optixGetInstanceId`` returns), ``prims`` are ids local to that
    instance's GAS (what ``optixGetPrimitiveIndex`` returns — renumbered
    from zero per BVH, §4.1).
    """

    __slots__ = ("rows", "instance_ids", "prims", "t_enter", "aabb_hit")

    def __init__(self, rows, instance_ids, prims, t_enter, aabb_hit):
        self.rows = rows
        self.instance_ids = instance_ids
        self.prims = prims
        self.t_enter = t_enter
        self.aabb_hit = aabb_hit

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def empty(cls) -> "InstanceHits":
        e = np.empty(0, dtype=np.int64)
        return cls(e, e.copy(), e.copy(), promote64(np.empty(0)), np.empty(0, dtype=bool))


class InstanceAS:
    """A one-level IAS over a list of instances.

    Instances are tested front to back in insertion order; each instance
    root test is one traversal node visit for the ray, then the ray (in
    object space) descends the instance's GAS. With LibRTS's identity
    transforms this is the hardware's two-level traversal graph with the
    world-space top level scanned linearly — faithful for the modest
    instance counts produced by batched insertion.
    """

    def __init__(self, instances: list[Instance] | None = None):
        self.instances: list[Instance] = list(instances or [])

    def __len__(self) -> int:
        return len(self.instances)

    @classmethod
    def from_gases(cls, gases: list[GeometryAS]) -> "InstanceAS":
        """The LibRTS scene shape: one identity-transform instance per
        GAS, instance id = batch position. Rebuilding this table is the
        cheap IAS rebuild of §4.1: the table is fully derived from the
        GAS list."""
        ias = cls()
        for gas in gases:
            ias.add_instance(gas)
        return ias

    def add_instance(
        self, gas: GeometryAS, transform: Transform | None = None, instance_id: int | None = None
    ) -> Instance:
        """Link a GAS into the IAS (rebuilding an IAS is cheap: it stores
        links, not primitives)."""
        inst = Instance(
            gas,
            transform or Transform.identity(),
            instance_id if instance_id is not None else len(self.instances),
        )
        self.instances.append(inst)
        return inst

    def world_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Union of instance world bounds."""
        if not self.instances:
            raise ValueError("empty IAS has no bounds")
        bounds = [inst.world_bounds() for inst in self.instances]
        lo = np.min([b[0] for b in bounds], axis=0)
        hi = np.max([b[1] for b in bounds], axis=0)
        return lo, hi

    def traverse(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        tmins: np.ndarray,
        tmaxs: np.ndarray,
        stats: TraversalStats,
        stat_ids: np.ndarray | None = None,
        tracer=None,
    ) -> InstanceHits:
        """Cast rays through the two-level structure. ``tracer`` records
        the launch as an ``ias.traverse`` span with one child
        ``bvh.traverse`` span per instance descent."""
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "ias.traverse",
                n_rays=int(origins.shape[0]),
                n_instances=len(self.instances),
            ):
                return self._traverse(origins, dirs, tmins, tmaxs, stats, stat_ids, tracer)
        return self._traverse(origins, dirs, tmins, tmaxs, stats, stat_ids, tracer)

    def _traverse(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        tmins: np.ndarray,
        tmaxs: np.ndarray,
        stats: TraversalStats,
        stat_ids: np.ndarray | None,
        tracer=None,
    ) -> InstanceHits:
        parts: list[InstanceHits] = []
        for inst in self.instances:
            if len(inst.gas) == 0:
                continue
            if inst.transform.is_identity():
                o, dvec = origins, dirs
            else:
                inv = inst.transform.inverse()
                o = inv.apply_points(origins)
                dvec = inv.apply_vectors(dirs)
            cand = inst.gas.traverse(o, dvec, tmins, tmaxs, stats, stat_ids, tracer=tracer)
            if len(cand):
                parts.append(
                    InstanceHits(
                        cand.rows,
                        np.full(len(cand), inst.instance_id, dtype=np.int64),
                        cand.prims,
                        cand.t_enter,
                        cand.aabb_hit,
                    )
                )
        if not parts:
            return InstanceHits.empty()
        return InstanceHits(
            np.concatenate([p.rows for p in parts]),
            np.concatenate([p.instance_ids for p in parts]),
            np.concatenate([p.prims for p in parts]),
            np.concatenate([p.t_enter for p in parts]),
            np.concatenate([p.aabb_hit for p in parts]),
        )
