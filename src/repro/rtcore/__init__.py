"""Software simulator of the OptiX programming-model subset used by LibRTS.

The simulator reproduces, in NumPy, the machinery the paper gets from
OptiX 8 + RT cores (paper §2.2-§2.4):

- :mod:`repro.rtcore.bvh` — an opaque driver-managed BVH over AABB custom
  primitives, with build, refit, and batch ray traversal that tracks the
  exact per-ray work an RT core would perform (node visits, IS-shader
  invocations).
- :mod:`repro.rtcore.kernel` — the one frontier traversal kernel every
  structure (Morton BVH, SAH BVH, box-overlap traversal) runs, and the
  one traced ray launch both BVH layouts share.
- :mod:`repro.rtcore.gas` / :mod:`repro.rtcore.ias` — the two-level
  Geometry / Instance acceleration structures (Figure 2): an
  identity-instance IAS, as LibRTS uses (§4.1), the substrate of its
  mutability design (§4).
- :mod:`repro.rtcore.pipeline` — the shader pipeline: a launch casts rays
  (RayGen), traversal invokes the IsIntersection shader on potential hits,
  then AnyHit / ClosestHit / Miss, under the single-ray programming model.

Every RT launch takes one path: ``InstanceAS.traverse`` → one
``kernel.traverse`` over every instance GAS in lockstep (a bare GAS
launch enters through its BVH's ``traverse``).
Traversal is batch-vectorized, but all statistics are per ray, which is
what the single-ray model maps to hardware threads and what the
performance model consumes.
"""

from repro.rtcore.bvh import BVH
from repro.rtcore.sah import SAHBVH
from repro.rtcore.gas import GeometryAS
from repro.rtcore.ias import InstanceAS
from repro.rtcore.pipeline import Pipeline, ShaderPrograms, IsContext
from repro.rtcore.stats import TraversalStats, merge_shard_stats

__all__ = [
    "BVH",
    "SAHBVH",
    "GeometryAS",
    "InstanceAS",
    "Pipeline",
    "ShaderPrograms",
    "IsContext",
    "TraversalStats",
    "merge_shard_stats",
]
