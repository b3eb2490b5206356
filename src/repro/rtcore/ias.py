"""Instance Acceleration Structure (paper §2.3, Figure 2).

An IAS links GASes into a scene: each *instance* is a reference to a GAS
and a user-visible instance id (``optixGetInstanceId``). LibRTS links
every GAS with the identity transform (§4.1), so this is an
identity-instance IAS: a ray enters each instance's GAS unchanged.

Building an IAS is lightweight — it stores no primitives, only links —
which is exactly why LibRTS can afford to rebuild it on every insertion
batch (§4.1). A launch is one frontier over every instance: the
instance GASes descend in lockstep through one run of the traversal
kernel (:func:`repro.rtcore.kernel.traverse`), as the hardware
traverses the two-level graph in one ``optixTrace`` launch.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import counter_snapshot, record_delta
from repro.rtcore import kernel
from repro.rtcore.gas import GeometryAS
from repro.rtcore.kernel import Candidates
from repro.rtcore.stats import TraversalStats


class Instance:
    """One IAS entry: a GAS and its instance id."""

    __slots__ = ("gas", "instance_id")

    def __init__(self, gas: GeometryAS, instance_id: int):
        self.gas = gas
        self.instance_id = int(instance_id)


class InstanceAS:
    """A one-level IAS over a list of instances.

    Every ray tests every instance root (one traversal node visit each)
    and descends each instance GAS whose root it hits. The top level is
    counted as a linear scan, faithful for the modest instance counts
    produced by batched insertion; execution fuses it, so one launch
    runs one frontier however many instances the IAS holds.
    """

    def __init__(self, instances: list[Instance] | None = None):
        self.instances: list[Instance] = []
        self._gas_of: dict[int, GeometryAS] = {}
        for inst in instances or []:
            self.add_instance(inst.gas, inst.instance_id)

    def __len__(self) -> int:
        return len(self.instances)

    @classmethod
    def from_gases(cls, gases: list[GeometryAS]) -> "InstanceAS":
        """The LibRTS scene shape: one instance per GAS, instance id =
        batch position. Rebuilding this table is the cheap IAS rebuild
        of §4.1: the table is fully derived from the GAS list."""
        ias = cls()
        for gas in gases:
            ias.add_instance(gas)
        return ias

    def add_instance(self, gas: GeometryAS, instance_id: int | None = None) -> Instance:
        """Link a GAS into the IAS (rebuilding an IAS is cheap: it stores
        links, not primitives). Instance ids are unique: an IS shader
        tells the instances' primitives apart by them."""
        inst = Instance(gas, instance_id if instance_id is not None else len(self.instances))
        if inst.instance_id in self._gas_of:
            raise ValueError(f"instance id {inst.instance_id} is already linked")
        self._gas_of[inst.instance_id] = gas
        self.instances.append(inst)
        return inst

    def prim_boxes(self, cand: Candidates) -> tuple[np.ndarray, np.ndarray]:
        """``(mins, maxs)`` of each candidate's own primitive AABB, read
        from the GAS its instance id names. ``cand`` is a non-empty
        result of :meth:`traverse`, which returns candidates in instance
        order, so each run of one id is one gather."""
        ids = cand.instance_ids
        cuts = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
        runs = [(self._gas_of[int(ids[a])].boxes, cand.prims[a:b]) for a, b in zip(cuts, cuts[1:])]
        return tuple(
            np.concatenate([getattr(boxes, side)[prims] for boxes, prims in runs])
            for side in ("mins", "maxs")
        )

    def traverse(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        tmins: np.ndarray,
        tmaxs: np.ndarray,
        stats: TraversalStats,
        tracer=None,
    ) -> Candidates:
        """Cast rays through the two-level structure.

        Returns the candidates of every instance in instance order, with
        ``instance_ids`` set; ``prims`` are ids local to the instance's
        GAS (what ``optixGetPrimitiveIndex`` returns — renumbered from
        zero per BVH, §4.1). Empty instances are skipped. ``tracer``
        records the launch as one ``ias.traverse`` span with its counter
        deltas.
        """
        if tracer is None or not tracer.enabled:
            insts = [inst for inst in self.instances if len(inst.gas)]
            return kernel.traverse(
                [inst.gas.bvh.topology(inst.gas.bvh) for inst in insts],
                kernel.RaySlab(origins, dirs, tmins, tmaxs),
                origins.shape[0],
                stats,
                [inst.instance_id for inst in insts],
            )
        with tracer.span(
            "ias.traverse",
            n_rays=int(origins.shape[0]),
            n_instances=len(self.instances),
        ) as sp:
            before = counter_snapshot(stats)
            out = self.traverse(origins, dirs, tmins, tmaxs, stats)
            record_delta(sp, before, stats)
        return out
