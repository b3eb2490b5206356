"""Calibration constants for the machine models.

Units: one *op unit* is the latency-equivalent of a single hardware
RT-core node visit. All other costs are expressed relative to it, and a
platform's ``lane_throughput`` converts aggregate op units to seconds.

Anchors (from the paper and the GPU literature it cites):

- Turing whitepaper [50]: software BVH traversal needs "thousands of
  instruction slots per ray" and RT cores deliver ~10x — the base
  software-traversal penalty ``SW_NODE_OP = 10``.
- Fig 6(a): LibRTS runs 100K point queries in ~0.05-0.5 ms; with ~40 node
  visits per ray on a 250K-primitive BVH that implies an effective RT
  traversal throughput of a few 1e10 visits/s on an RTX 3090.
- Fig 6(a) again: the LBVH gap grows from a few x on 12K primitives to
  85x on 8.3M — software traversal pays a memory-hierarchy factor that
  ramps once the tree spills out of L2 (RT cores read compressed nodes
  through dedicated caches and stay flat).
- Fig 8: Range-Intersects gains are 1.3-11x, much smaller than point
  queries — IS-shader and result work runs on SMs for *both* platforms,
  diluting the traversal advantage exactly as modelled.
- §6.1: CPU baselines distribute queries over 128 EPYC cores; Fig 6(a)
  shows Boost ~100x slower than LibRTS at 11.5M primitives, anchoring the
  per-core pointer-chase rate.
"""

# --- GPU op-unit costs -------------------------------------------------------

#: Hardware RT-core BVH node visit (the unit).
RT_NODE_OP = 1.0

#: Software (SM) BVH node visit before memory effects. The Turing
#: whitepaper's 10x covers the traversal ASIC alone; software traversal
#: additionally pays stack management, divergence reconvergence and
#: uncoalesced node fetches, putting the end-to-end per-visit gap higher.
SW_NODE_OP = 25.0

#: IsIntersection shader invocation — runs on the SM on both platforms.
IS_OP = 3.0

#: Result-queue append (atomic + global-memory store) — both platforms.
RESULT_OP = 2.0

#: One exact polygon-edge crossing test in a PIP refinement kernel.
EDGE_OP = 1.5

#: Aggregate GPU lane throughput, op units per second. Chosen so 100K
#: point-query rays x ~40 visits land near Fig 6(a)'s LibRTS times.
GPU_LANE_THROUGHPUT = 1.0e11

#: Fixed kernel-launch + pipeline overhead per GPU launch (seconds).
GPU_LAUNCH_OVERHEAD = 12.0e-6

#: SIMT width: a warp retires with its slowest lane.
WARP_SIZE = 32

# --- Software-traversal memory-hierarchy factor ------------------------------

#: Node count that fits the L2-resident working set; beyond it the
#: software traversal cost ramps logarithmically (uncoalesced DRAM reads).
SW_CACHE_NODES = 1.0e5

#: Multiplicative penalty per doubling beyond the cache-resident size.
SW_CACHE_RAMP = 0.85

#: Cap on the memory factor (DRAM-latency bound).
SW_CACHE_MAX = 18.0

# --- CPU ----------------------------------------------------------------------

#: Per-core index-entry operations per second (pointer-chasing tree
#: descent with cache misses on a 2.0 GHz EPYC core).
CPU_CORE_RATE = 6.0e6

#: Cores used by the parallel CPU baselines (2x EPYC 7713).
CPU_CORES = 128

#: Per-query fixed overhead (call dispatch, result buffer bookkeeping).
CPU_QUERY_OVERHEAD_OPS = 60.0

#: Relative cost of CPU work classes, in per-core op units.
CPU_NODE_OP = 1.0
CPU_LEAF_OP = 0.6
CPU_RESULT_OP = 0.8

# --- Build / update models (seconds) -----------------------------------------

#: OptiX GAS build: hardware-assisted parallel build, linear in n.
OPTIX_BUILD_FIXED = 1.5e-4
OPTIX_BUILD_PER_PRIM = 2.2e-9

#: OptiX refit (BVH update): >3x cheaper than building [26].
OPTIX_REFIT_FIXED = 1.0e-5
OPTIX_REFIT_PER_PRIM = 0.6e-9

#: IAS build: links only, no primitives (§4.1) — but a rebuild is a
#: host-synchronised pipeline relaunch, which dominates small batches
#: (it is what caps insertion at ~1.4M rects/s for 1K batches, Fig 10b).
IAS_BUILD_FIXED = 5.0e-4
IAS_BUILD_PER_INSTANCE = 2.0e-7

#: IAS refit: update instance bounds in place, no relaunch.
IAS_REFIT_FIXED = 1.0e-5

#: LBVH build on GPU: Morton sort (n log n) + linked hierarchy.
LBVH_BUILD_FIXED = 6.0e-5
LBVH_BUILD_PER_PRIM_LOG = 4.0e-10

#: Boost R-tree: serial CPU insertion-sort style bulk load (n log n).
RTREE_BUILD_PER_PRIM_LOG = 4.5e-8

#: GLIN: parallel curve-key sort + piecewise-linear fit; the paper
#: measures its build below even LBVH's at scale.
GLIN_BUILD_PER_PRIM_LOG = 2.5e-10

#: KD-tree (CGAL/ParGeo): serial n log n with a moderate constant.
KDTREE_BUILD_PER_PRIM_LOG = 2.5e-8

#: cuSpatial octree build on GPU (sort-based).
OCTREE_BUILD_FIXED = 2.0e-4
OCTREE_BUILD_PER_PRIM_LOG = 6.0e-10

# --- Query-cost priors (analytic, pre-feedback) ------------------------------
#
# Coarse traversal priors for the planner's closed-form backend pricing
# (perfmodel.querycost). They only seed the decision; the planner's EWMA
# feedback loop corrects each (workload signature, backend) estimate from
# observed simulated times.

#: Expected BVH node visits per ray, as a multiple of log2(n_prims).
PRIOR_NODES_PER_LEVEL = 3.0

#: Expected IS-shader invocations (candidate tests) per ray.
PRIOR_IS_PER_RAY = 8.0

#: Expected result pairs per query.
PRIOR_RESULTS_PER_QUERY = 2.0

#: Prior pair selectivity of a Range-Intersects workload (fraction of
#: (rect, query) pairs that intersect) before feedback corrects it.
PRIOR_INTERSECTS_SELECTIVITY = 1.0e-3

#: Expected surviving R-tree nodes per level per query (drives the
#: fanout-at-a-time scan count of the CPU baseline estimate).
PRIOR_RTREE_NODES_PER_LEVEL = 2.0
