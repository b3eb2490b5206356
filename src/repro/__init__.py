"""Reproduction of *LibRTS: A Spatial Indexing Library by Ray Tracing*
(Geng, Lee, Zhang — PPoPP 2025).

The package is organised as the paper's system plus every substrate it
depends on:

- :mod:`repro.geometry` — vectorized geometric kernel (boxes, rays,
  segments, predicates, Morton codes, polygons).
- :mod:`repro.rtcore` — a software simulator of the OptiX programming-model
  subset used by LibRTS (BVH build/refit, GAS/IAS, shader pipeline,
  ``optixTrace``), with exact per-ray work counters.
- :mod:`repro.perfmodel` — calibrated machine models that convert traversal
  counters into simulated times for RT-core GPU, software GPU and CPU.
- :mod:`repro.core` — LibRTS itself: the :class:`~repro.core.RTSIndex`
  with point / Range-Contains / Range-Intersects queries, Ray Multicast
  load balancing, and insert/delete/update support.
- :mod:`repro.baselines` — R-tree (Boost), KD-tree (CGAL/ParGeo), GLIN,
  LBVH, octree (cuSpatial) and a uniform grid.
- :mod:`repro.pip` — the point-in-polygon application (LibRTS, cuSpatial
  and RayJoin formulations).
- :mod:`repro.datasets` — Spider-style synthetic generators, real-world
  dataset stand-ins and selectivity-targeted query generators.
- :mod:`repro.bench` — the experiment harness regenerating every figure.
- :mod:`repro.serve` — the concurrent query-serving layer: micro-batched
  request scheduling, epoch-snapshot isolation for mutations, and an
  epoch-keyed result cache over one :class:`~repro.core.RTSIndex`.
"""

from repro.core.handlers import CollectingHandler, CountingHandler
from repro.core.index import RTSIndex
from repro.geometry.boxes import Boxes
from repro.geometry.ray import Rays
from repro.obs import MetricsRegistry, Tracer
from repro.serve import ServiceConfig, SpatialQueryService

__version__ = "1.0.0"

__all__ = [
    "RTSIndex",
    "CollectingHandler",
    "CountingHandler",
    "Boxes",
    "Rays",
    "Tracer",
    "MetricsRegistry",
    "SpatialQueryService",
    "ServiceConfig",
    "__version__",
]
