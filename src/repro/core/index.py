"""The LibRTS spatial index (paper Algorithm 2, §4, §5).

:class:`RTSIndex` is the user-facing class. It mirrors the paper's C++
template ``RTSIndex<COORD_T, N_DIMS>``:

- ``dtype`` plays COORD_T (float32 by default — the paper runs FP32
  because RTX GPUs have few FP64 units);
- ``ndim`` plays N_DIMS (2 or 3);
- ``query`` takes a :class:`Predicate`, the query buffer and an optional
  handler, like ``Query(Predicate p, QUERY_T *queries, int n, ...)``;
- ``insert`` / ``delete`` / ``update`` provide mutability.

Mutability design (§4): rather than one monolithic BVH, every insertion
batch becomes its own GAS, linked under a single identity-instance IAS.
A prefix-sum array maps (instance id, local primitive index) to the
global rectangle id in O(1). Deletion degenerates rectangle
extents so rays can never report them; updates overwrite coordinates and
refit the owning GAS.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np

from repro.core.handlers import Handler
from repro.core.multicast import DEFAULT_SAMPLE, DEFAULT_W
from repro.core.queries.contains import run_contains_query
from repro.core.queries.intersects import run_intersects_query
from repro.core.result import QueryResult
from repro.geometry.boxes import Boxes
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.parallel.executor import ChunkedExecutor, default_workers
from repro.perfmodel.build import BuildModel
from repro.perfmodel.platforms import GPUPlatform, rt_core_platform
from repro.rtcore.gas import GeometryAS
from repro.rtcore.ias import InstanceAS


class Predicate(enum.Enum):
    """Query predicates supported by :meth:`RTSIndex.query`."""

    #: Point query: rectangles containing each query point (§3.1).
    CONTAINS_POINT = "contains-point"
    #: Range-Contains: indexed rectangles containing each query rectangle
    #: (§3.2).
    RANGE_CONTAINS = "range-contains"
    #: Range-Intersects: indexed rectangles intersecting each query
    #: rectangle (§3.3).
    RANGE_INTERSECTS = "range-intersects"


@dataclass(frozen=True)
class OpRecord:
    """One mutation's simulated cost (drives Figure 10)."""

    op: str
    count: int
    sim_time: float


def _require_finite(what: str, coords, exempt: np.ndarray | None = None) -> None:
    """Raise ``ValueError`` naming the first row of ``coords`` with a NaN
    or infinite coordinate, skipping rows where ``exempt`` is set.

    Callers pass coordinates already cast to the index dtype, so a
    float64 value that overflows float32 is caught too. Non-finite
    bounds defeat the slab test and the diagonal casts, which would
    otherwise return silently wrong pairs.
    """
    finite = np.isfinite(np.atleast_2d(coords))
    if finite.all():
        return
    bad = ~finite.all(axis=tuple(range(1, finite.ndim)))
    if exempt is not None:
        bad &= ~exempt
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValueError(f"{what} row {row} has a non-finite (NaN or inf) coordinate")


def _coerce_boxes(data, ndim: int, dtype) -> Boxes:
    """Accept Boxes, an (n, 2*ndim) interleaved array, or (mins, maxs);
    reject NaN/inf coordinates."""
    if isinstance(data, Boxes):
        b = data
    elif isinstance(data, tuple) and len(data) == 2:
        b = Boxes(data[0], data[1])
    else:
        arr = np.asarray(data)
        if arr.size == 0:
            # A shapeless empty batch ([], np.array([])) carries no
            # column count to infer a dimensionality from; coerce it to
            # an empty box set of the index's own ndim.
            return Boxes.empty(ndim, dtype=dtype)
        b = Boxes.from_interleaved(arr)
    if b.ndim != ndim:
        raise ValueError(f"expected {ndim}-D rectangles, got {b.ndim}-D")
    out = Boxes(b.mins.copy(), b.maxs.copy(), dtype=dtype)
    if not (np.isfinite(out.mins).all() and np.isfinite(out.maxs).all()):
        # Boxes.degenerate's deletion marker (+inf mins, -inf maxs) can
        # never be hit; the degenerate-box checks reject it wherever a
        # live rectangle is required.
        deleted = (out.mins == np.inf).all(axis=1) & (out.maxs == -np.inf).all(axis=1)
        _require_finite("rectangle", np.hstack([out.mins, out.maxs]), exempt=deleted)
    return out


def check_planner(planner) -> None:
    """Raise ``ValueError`` unless ``planner`` is a planner setting:
    ``"auto"`` plans the batch; ``None`` and ``"off"`` run the
    fixed-config RT path."""
    if planner not in (None, "off", "auto"):
        raise ValueError(f'planner must be None, "off" or "auto", got {planner!r}')


class RTSIndex:
    """A mutable spatial index over axis-aligned rectangles, executed on
    the simulated RT cores.

    Parameters
    ----------
    data:
        Optional initial rectangles (Boxes, interleaved array, or a
        ``(mins, maxs)`` tuple); inserted as the first batch.
    ndim:
        Spatial dimensionality, 2 or 3 (the template's N_DIMS).
    dtype:
        Coordinate type, float32 or float64 (COORD_T).
    leaf_size:
        Primitives per BVH leaf (1 = hardware-exact IS invocations).
    multicast:
        Enable Ray Multicast load balancing for Range-Intersects. The
        per-query k is predicted by the cost model unless pinned via
        ``query(..., k=...)``.
    w:
        The intersection-cost weight of the k cost model (Equation 3).
    sample_size:
        Per-side sample count of the selectivity trial run.
    platform:
        The GPU model pricing launches; defaults to the RT-core platform.
    builder:
        BVH build preset for every GAS: ``"fast_build"`` (Morton, the
        driver default) or ``"fast_trace"`` (binned SAH — fewer node
        visits on skewed extents, pricier builds).
    seed:
        Seed of the sampling RNG (reproducible k prediction).
    parallel:
        Run query batches sharded over a multicore thread pool (the
        paper's embarrassingly-parallel query distribution, §6.1).
        Results, per-query counters and simulated times are identical to
        serial execution; only wall-clock time changes. Fixed for the
        life of the index: every launch, planned or not, runs on the
        index's one executor, sharded by
        :func:`~repro.parallel.executor.plan_shards`.
    n_workers:
        Worker threads for parallel execution (default: all cores).
        ``n_workers=1`` is always serial; ``n_workers < 1`` is rejected
        with :class:`ValueError` (0 does *not* mean "all cores").
    tracer:
        Optional :class:`~repro.obs.Tracer` recording nested launch
        spans (query → phase → shard → traversal) with wall-clock time,
        simulated time and traversal-counter deltas. ``None`` (default)
        installs the zero-overhead no-op tracer. Tracing is observation
        only: results, per-ray counters and simulated times are
        bit-identical with tracing on or off.

    Planning is a per-call setting: ``query(..., planner="auto")`` lets
    the stateless :class:`~repro.plan.QueryPlanner` answer the batch on
    the RT pipeline or the in-tree LBVH, with bit-identical pairs either
    way (see :mod:`repro.plan`).
    """

    #: Optional global-id remap applied by the query kernels at result
    #: emission: ``None`` (the plain index — zero overhead) or an int64
    #: array mapping internal rectangle slots to the stable public ids
    #: the caller knows (``repro.churn.ChurnIndex`` keeps public ids
    #: stable across compactions this way). Declared as a class
    #: attribute so every construction path (``__init__``, ``fork``)
    #: inherits the no-remap default; subclasses override it with a
    #: property.
    _remap = None

    def __init__(
        self,
        data=None,
        *,
        ndim: int = 2,
        dtype=np.float32,
        leaf_size: int = 1,
        multicast: bool = True,
        w: float = DEFAULT_W,
        sample_size: int = DEFAULT_SAMPLE,
        platform: GPUPlatform | None = None,
        builder: str = "fast_build",
        seed: int = 0,
        parallel: bool = False,
        n_workers: int | None = None,
        tracer=None,
    ):
        if ndim not in (2, 3):
            raise ValueError("ndim must be 2 or 3")
        self.ndim = ndim
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError("dtype must be float32 or float64")
        self.leaf_size = leaf_size
        self.multicast = multicast
        self.w = w
        self.sample_size = sample_size
        self.platform = platform or rt_core_platform()
        self.builder = builder
        self.rng = np.random.default_rng(seed)
        self.parallel = bool(parallel)
        if n_workers is not None and int(n_workers) < 1:
            raise ValueError(
                f"n_workers must be >= 1, got {n_workers} (use None for all cores)"
            )
        self.n_workers = int(n_workers) if n_workers is not None else default_workers()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Session-level metrics (counters, gauges, per-ray work
        #: histograms), accumulated across every query on this index.
        self.metrics = MetricsRegistry()
        #: The index's one executor, used by every launch (planned or
        #: not); :meth:`close` releases it.
        self._executor = self._new_executor()

        self._gases: list[GeometryAS] = []
        self._ias = InstanceAS()
        self._prefix = np.zeros(1, dtype=np.int64)
        self._mins = np.empty((0, ndim), dtype=self.dtype)
        self._maxs = np.empty((0, ndim), dtype=self.dtype)
        self._deleted = np.empty(0, dtype=bool)
        self._flat_ias_cache: InstanceAS | None = None
        self.op_log: list[OpRecord] = []
        #: Monotonic mutation counter: every ``insert`` / ``delete`` /
        #: ``update`` / ``rebuild`` bumps it. ``repro.serve`` publishes
        #: forks under this number to give readers snapshot isolation.
        self.epoch = 0
        #: Batch indices whose GAS is shared with a :meth:`fork` twin and
        #: must be copied before an in-place refit (copy-on-write).
        self._shared_gases: set[int] = set()

        if data is not None:
            self.insert(data)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        """Total rectangle slots ever inserted (including deleted)."""
        return len(self._deleted)

    @property
    def n_rects(self) -> int:
        """Live (non-deleted) rectangles."""
        return int((~self._deleted).sum())

    @property
    def n_batches(self) -> int:
        """Insertion batches = GAS count = IAS instance count."""
        return len(self._gases)

    def all_boxes(self) -> Boxes:
        """The cached rectangle buffer (deleted entries are degenerate).

        The returned views are read-only: mutating coordinates behind the
        index's back would desynchronize the BVHs without a refit. Use
        :meth:`update` to move rectangles.
        """
        mins = self._mins.view()
        maxs = self._maxs.view()
        mins.flags.writeable = False
        maxs.flags.writeable = False
        return Boxes(mins, maxs)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Union bounds of the live rectangles."""
        return self.all_boxes().union_bounds()

    def total_nodes(self) -> int:
        """Total BVH nodes across all GASes (structure size for the
        performance model's memory factor)."""
        return int(sum(g.bvh.n_nodes for g in self._gases))

    def global_ids(self, instance_ids: np.ndarray, local_prims: np.ndarray) -> np.ndarray:
        """The paper's O(1) prefix-sum mapping (§4.1): global rectangle id
        from ``optixGetInstanceId`` and ``optixGetPrimitiveIndex``."""
        return self._prefix[instance_ids] + local_prims

    @property
    def last_op(self) -> OpRecord | None:
        return self.op_log[-1] if self.op_log else None

    def rt_traversal_factor(self) -> float:
        """Multiplier the planner applies to the RT pipeline's analytic
        query estimate for structure-quality degradation. The plain
        index always answers at its built quality (refits are priced per
        mutation, not per query), so the factor is 1; a
        :class:`~repro.churn.ChurnIndex` returns its observed traversal
        drift (live nodes/ray over the clean baseline, >= 1)."""
        return 1.0

    def memory_usage(self) -> dict[str, int]:
        """Approximate bytes held by the index, by component (primitive
        buffers, BVH node arrays, bookkeeping, and — in 3-D, once a
        Range-Intersects query has materialized it — the z-flattened
        shadow IAS) — the operational view a capacity planner needs
        (RayJoin's OOM on full OSM data, §6.9, is exactly a
        primitive-buffer blowup, and the shadow IAS duplicates every
        primitive and BVH node)."""
        prim_bytes = int(self._mins.nbytes + self._maxs.nbytes)
        node_bytes = int(sum(g.bvh.node_bytes for g in self._gases))
        bookkeeping = int(self._deleted.nbytes + self._prefix.nbytes)
        flat_bytes = 0
        if self._flat_ias_cache is not None:
            for inst in self._flat_ias_cache.instances:
                g = inst.gas
                flat_bytes += int(
                    g.boxes.mins.nbytes + g.boxes.maxs.nbytes + g.bvh.node_bytes
                )
        return {
            "primitives": prim_bytes,
            "bvh_nodes": node_bytes,
            "bookkeeping": bookkeeping,
            "flat_ias_shadow": flat_bytes,
            "total": prim_bytes + node_bytes + bookkeeping + flat_bytes,
        }

    def describe(self) -> dict:
        """A structural summary: counts, batches, refit wear, memory.

        ``refit_count`` is the §4.2 quality heuristic: call
        :meth:`rebuild` when it grows large and queries slow down.
        """
        return {
            "ndim": self.ndim,
            "dtype": str(self.dtype),
            "builder": self.builder,
            "total_slots": len(self),
            "live_rects": self.n_rects,
            "deleted": len(self) - self.n_rects,
            "batches": self.n_batches,
            "bvh_nodes": self.total_nodes(),
            "max_refit_count": max((g.refit_count for g in self._gases), default=0),
            "memory": self.memory_usage(),
            "mutations": len(self.op_log),
            "epoch": self.epoch,
        }

    def __repr__(self) -> str:
        return (
            f"RTSIndex(live={self.n_rects}, batches={self.n_batches}, "
            f"ndim={self.ndim}, dtype={self.dtype}, builder={self.builder!r})"
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release execution resources (the executor's thread-pool
        reference). Idempotent, and the index stays usable: a later
        parallel query simply re-acquires a pool. Long-lived callers that
        sweep ``n_workers`` (bench runs, the serving layer) should close
        indexes they own so replaced pool widths are shut down instead of
        idling forever."""
        executor, self._executor = self._executor, self._new_executor()
        if executor is not None:
            executor.close()

    def __enter__(self) -> "RTSIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- snapshot fork (serving substrate) ---------------------------------------

    def fork(self) -> "RTSIndex":
        """A copy-on-write snapshot of this index.

        The fork shares every GAS (the expensive part: BVH node arrays and
        primitive buffers) with its parent and copies only the small
        bookkeeping arrays, so forking is O(live rectangles) memcpy with no
        BVH work. Either twin copies a GAS privately the first time a
        ``delete``/``update`` refits it, so mutations on one side are
        invisible to the other — the substrate ``repro.serve`` uses for
        epoch-based snapshot isolation (a single writer forks the current
        snapshot, mutates the fork, and publishes it under a bumped
        epoch while in-flight readers keep traversing the old one).

        The fork clones the RNG state (deterministic k prediction
        continues exactly where the parent left off) and starts with no
        executor of its own; ``metrics`` and ``tracer`` are shared so
        session-level observability spans epochs. A shared GAS keeps its
        planner LBVH (:attr:`GeometryAS.lbvh
        <repro.rtcore.gas.GeometryAS.lbvh>`), so the twins share that
        too; the copy-on-write copy of a GAS starts without one.

        Forking preserves the concrete class: a subclass fork is an
        instance of the subclass, and :meth:`_fork_extra` lets it copy
        its own bookkeeping (``repro.churn.ChurnIndex`` carries its
        public-id map and shared drift state across epochs this way).
        """
        new = object.__new__(type(self))
        for attr in (
            "ndim", "dtype", "leaf_size", "multicast", "w", "sample_size",
            "platform", "builder", "parallel", "n_workers", "tracer", "metrics",
        ):
            setattr(new, attr, getattr(self, attr))
        new.rng = copy.deepcopy(self.rng)
        new._executor = new._new_executor()
        new._gases = list(self._gases)
        new._ias = InstanceAS.from_gases(new._gases)
        new._prefix = self._prefix.copy()
        new._mins = self._mins.copy()
        new._maxs = self._maxs.copy()
        new._deleted = self._deleted.copy()
        new._flat_ias_cache = self._flat_ias_cache
        new.op_log = list(self.op_log)
        new.epoch = self.epoch
        shared = set(range(len(self._gases)))
        new._shared_gases = set(shared)
        self._shared_gases |= shared
        self._fork_extra(new)
        return new

    def _fork_extra(self, new: "RTSIndex") -> None:
        """Subclass hook: copy subclass-owned state onto a fresh fork.

        Called at the end of :meth:`fork` with every base attribute
        already populated. The base index has nothing extra to copy.
        """

    def _materialize_gases(self, batches) -> None:
        """Copy-on-write: privately clone every shared GAS in ``batches``
        before an in-place refit, then relink the IAS (cheap — it stores
        no geometry). ``copy.deepcopy`` preserves BVH topology and
        ``refit_count`` exactly, so a mutation applied to a fork yields
        bit-identical traversal counters to the same mutation applied
        in place. The copy carries no planner LBVH."""
        touched = [int(b) for b in batches if int(b) in self._shared_gases]
        if not touched:
            return
        for b in touched:
            self._gases[b] = copy.deepcopy(self._gases[b])
            self._shared_gases.discard(b)
        self._ias = InstanceAS.from_gases(self._gases)

    # -- mutation (§4) ---------------------------------------------------------

    def insert(self, data) -> np.ndarray:
        """Insert a batch of rectangles; returns their global ids.

        The batch becomes a new GAS; the IAS is rebuilt (cheap — it links
        BVHs without storing geometry) and the prefix-sum array extended.
        """
        batch = _coerce_boxes(data, self.ndim, self.dtype)
        if len(batch) == 0:
            # A true no-op, for parity with empty delete/update: no GAS,
            # no epoch bump, no cache invalidation, no priced OpRecord.
            return np.empty(0, dtype=np.int64)
        if batch.is_degenerate().any():
            raise ValueError("cannot insert degenerate rectangles")
        base = self._prefix[-1]
        gas = GeometryAS(batch, leaf_size=self.leaf_size, builder=self.builder)
        self._gases.append(gas)
        self._ias.add_instance(gas, instance_id=len(self._gases) - 1)
        self._prefix = np.append(self._prefix, base + len(batch))
        self._mins = np.concatenate([self._mins, batch.mins])
        self._maxs = np.concatenate([self._maxs, batch.maxs])
        self._deleted = np.concatenate(
            [self._deleted, np.zeros(len(batch), dtype=bool)]
        )
        self._flat_ias_cache = None
        self.epoch += 1
        self.op_log.append(
            OpRecord(
                "insert",
                len(batch),
                BuildModel.insert_batch(len(batch), len(self._gases)),
            )
        )
        return np.arange(base, base + len(batch), dtype=np.int64)

    def _locate(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map global ids to (batch, local) coordinates."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= len(self)):
            raise IndexError("rectangle id out of range")
        batch = np.searchsorted(self._prefix, ids, side="right") - 1
        return batch, ids - self._prefix[batch]

    def delete(self, ids) -> None:
        """Delete rectangles by id (§4.2): their extents are degenerated
        so ray casting can never find them, then the touched GASes are
        refit. Deleting an already-deleted id is a no-op, and an empty
        batch is a true no-op: no refit, no cache invalidation, no
        priced :class:`OpRecord`."""
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        if len(ids) == 0:
            return
        batch, local = self._locate(ids)
        self._deleted[ids] = True
        self._mins[ids] = np.inf
        self._maxs[ids] = -np.inf
        self._materialize_gases(np.unique(batch))
        touched = []
        for b in np.unique(batch):
            self._gases[b].degenerate_primitives(local[batch == b])
            touched.append(len(self._gases[b]))
        self._flat_ias_cache = None
        self.epoch += 1
        self.op_log.append(
            OpRecord(
                "delete",
                len(ids),
                BuildModel.delete_batch(touched, len(self._gases)),
            )
        )

    def update(self, ids, new_data) -> None:
        """Overwrite rectangle coordinates and refit the owning GASes
        (OptiX BVH update, §4.2). Updating a deleted id resurrects it."""
        ids = np.asarray(ids, dtype=np.int64)
        new = _coerce_boxes(new_data, self.ndim, self.dtype)
        if len(new) != len(ids):
            raise ValueError("ids and new rectangles must align")
        if new.is_degenerate().any():
            raise ValueError("use delete() for degenerate rectangles")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("duplicate ids in one update batch")
        if len(ids) == 0:
            # A true no-op: nothing to refit, no cache invalidation, no
            # priced OpRecord (an empty record would skew Figure 10).
            return
        batch, local = self._locate(ids)
        self._deleted[ids] = False
        self._mins[ids] = new.mins
        self._maxs[ids] = new.maxs
        self._materialize_gases(np.unique(batch))
        touched = []
        for b in np.unique(batch):
            sel = batch == b
            self._gases[b].update_primitives(local[sel], new[sel])
            touched.append(len(self._gases[b]))
        self._flat_ias_cache = None
        self.epoch += 1
        self.op_log.append(
            OpRecord(
                "update",
                len(ids),
                BuildModel.update_batch(touched, len(self._gases)),
            )
        )

    def rebuild(self) -> None:
        """Compact every batch into one freshly built GAS (the paper's
        remedy when refit-degraded quality hurts queries, §4.2). Global
        ids are preserved; deleted slots stay degenerate."""
        boxes = Boxes(self._mins.copy(), self._maxs.copy())
        gas = GeometryAS(boxes, leaf_size=self.leaf_size, builder=self.builder)
        self._gases = [gas]
        self._ias = InstanceAS()
        self._ias.add_instance(gas, instance_id=0)
        self._prefix = np.array([0, len(boxes)], dtype=np.int64)
        self._flat_ias_cache = None
        self._shared_gases = set()
        self.epoch += 1
        self.op_log.append(
            OpRecord("rebuild", len(boxes), BuildModel.optix_gas_build(len(boxes)))
        )

    # -- query dispatch ---------------------------------------------------------

    def _new_executor(self) -> ChunkedExecutor | None:
        """A fresh executor for this index: ``None`` (serial) unless it
        was built with ``parallel=True`` and ``n_workers > 1``. Creating
        one is cheap; it acquires a pool on its first sharded launch."""
        if self.parallel and self.n_workers > 1:
            return ChunkedExecutor(self.n_workers)
        return None

    def query(
        self,
        predicate: Predicate,
        queries,
        handler: Handler | None = None,
        k: int | None = None,
        planner=None,
    ) -> QueryResult:
        """Run a spatial query (Algorithm 2's ``Query``).

        ``queries`` is an ``(n, ndim)`` point array for
        :attr:`Predicate.CONTAINS_POINT` and a rectangle set (Boxes /
        interleaved array / (mins, maxs)) for the range predicates.
        ``k`` pins the Ray Multicast parameter (None = cost model).
        ``planner="auto"`` plans this batch: it may answer on the
        in-tree LBVH when the cost model prices it decisively below the
        RT pipeline, with bit-identical pairs either way and the
        decision recorded in ``result.meta["plan"]``. ``None`` (the
        default) and ``"off"`` run the fixed-config RT path; any other
        value raises ``ValueError``.
        """
        if not isinstance(predicate, Predicate):
            raise ValueError(f"unsupported predicate: {predicate!r}")
        check_planner(planner)
        if len(self) == 0:
            # A long-lived index (e.g. behind repro.serve) can transiently
            # hold zero rows; that is an empty answer, not an error.
            empty = np.empty(0, dtype=np.int64)
            result = QueryResult(empty, empty.copy(), {}, {})
            self._record_metrics(predicate, result)
            return result
        if predicate is Predicate.CONTAINS_POINT:
            payload = np.asarray(queries)
            _require_finite("query point", np.asarray(payload, dtype=self.dtype))
        else:
            payload = _coerce_boxes(queries, self.ndim, self.dtype)

        plan = None
        if planner == "auto":
            # Deferred import: ``repro.plan`` imports this module, and
            # planner-free usage stays free of the plan package.
            from repro.plan.planner import QueryPlanner

            if isinstance(payload, Boxes):
                n_q = len(payload)
            else:
                n_q = int(payload.shape[0]) if payload.ndim else 0
            plan = QueryPlanner().plan(self, predicate, n_q, k=k)

        if plan is not None and plan.backend != "rt":
            from repro.plan.backends import execute_baseline

            with self.tracer.span(
                "query", predicate=predicate.value, backend=plan.backend
            ) as q_sp:
                r, q, phases, meta = execute_baseline(
                    self, plan.backend, predicate, payload, handler
                )
                result = QueryResult(r, q, phases, meta)
                result.meta["plan"] = plan.to_meta()
                if self.tracer.enabled:
                    q_sp.sim_time = result.sim_time
                    q_sp.attrs["n_pairs"] = len(result)
                    result.meta["trace"] = q_sp
            self._record_metrics(predicate, result)
            return result

        executor = self._executor
        with self.tracer.span("query", predicate=predicate.value) as q_sp:
            if predicate is Predicate.RANGE_INTERSECTS:
                r, q, phases, meta = run_intersects_query(
                    self, payload, handler, k=k, executor=executor
                )
            else:
                # Points or Boxes: the payload picks the exact predicate.
                r, q, phases, meta = run_contains_query(
                    self, payload, handler, executor=executor
                )
            result = QueryResult(r, q, phases, meta)
            if plan is not None:
                result.meta["plan"] = plan.to_meta()
            if self.tracer.enabled:
                q_sp.sim_time = result.sim_time
                q_sp.attrs["n_pairs"] = len(result)
                result.meta["trace"] = q_sp
        self._record_metrics(predicate, result)
        return result

    def _record_metrics(self, predicate: Predicate, result: QueryResult) -> None:
        """Fold one query's work into the index-level metrics registry.

        Counter totals and sim times are already computed by the query
        path; the only extra work is the per-ray histograms (one
        vectorized bincount per counter array).
        """
        pred = predicate.value
        m = self.metrics
        m.inc(f"query.{pred}.calls")
        m.inc(f"query.{pred}.pairs", len(result))
        m.inc(f"query.{pred}.sim_time", result.sim_time)
        m.set_gauge(f"query.{pred}.last_sim_time", result.sim_time)
        for label, key in (
            ("", "stats_obj"),
            (".forward", "forward_stats_obj"),
            (".backward", "backward_stats_obj"),
        ):
            stats = result.meta.get(key)
            if stats is None:
                continue
            m.inc(f"query.{pred}{label}.rays", stats.n_rays)
            m.inc(f"query.{pred}{label}.nodes_visited", int(stats.nodes_visited.sum()))
            m.inc(f"query.{pred}{label}.is_invocations", int(stats.is_invocations.sum()))
            m.inc(f"query.{pred}{label}.results_emitted", int(stats.results_emitted.sum()))
            m.observe(f"query.{pred}{label}.nodes_per_ray", stats.nodes_visited)
            m.observe(f"query.{pred}{label}.is_per_ray", stats.is_invocations)

    def query_points(self, points, handler=None, planner=None) -> QueryResult:
        """Convenience alias for the point query."""
        return self.query(Predicate.CONTAINS_POINT, points, handler, planner=planner)

    def query_contains(self, rects, handler=None, planner=None) -> QueryResult:
        """Convenience alias for Range-Contains."""
        return self.query(Predicate.RANGE_CONTAINS, rects, handler, planner=planner)

    def query_intersects(self, rects, handler=None, k=None, planner=None) -> QueryResult:
        """Convenience alias for Range-Intersects."""
        return self.query(Predicate.RANGE_INTERSECTS, rects, handler, k=k, planner=planner)

    # -- substrate access (used by the query modules) ----------------------------

    def intersects_ias(self) -> InstanceAS:
        """The traversable the forward pass casts into: the IAS itself in
        2-D, a z-flattened shadow copy in 3-D (see
        :mod:`repro.core.queries.intersects`)."""
        if self.ndim == 2:
            return self._ias
        if self._flat_ias_cache is None:
            flat = InstanceAS()
            for i, gas in enumerate(self._gases):
                mins = gas.boxes.mins.copy()
                maxs = gas.boxes.maxs.copy()
                live = mins[:, 2] <= maxs[:, 2]
                mins[live, 2] = 0.0
                maxs[live, 2] = 0.0
                flat.add_instance(
                    GeometryAS(
                        Boxes(mins, maxs),
                        leaf_size=self.leaf_size,
                        builder=self.builder,
                    ),
                    instance_id=i,
                )
            self._flat_ias_cache = flat
        return self._flat_ias_cache

    # -- paper-style API aliases (§5, Algorithm 2) -------------------------------

    def Init(self, ptx_root: str | None = None) -> "RTSIndex":
        """Paper API parity: loading PTX and creating the rendering
        pipeline is a no-op in the simulator."""
        return self

    def Query(self, p: Predicate, queries, n: int | None = None, arg=None) -> QueryResult:
        """Paper API parity; ``arg`` is the handler."""
        return self.query(p, queries, handler=arg)

    def Insert(self, rectangles, n: int | None = None) -> np.ndarray:
        """Paper API parity."""
        return self.insert(rectangles)

    def Delete(self, ids, n: int | None = None) -> None:
        """Paper API parity."""
        self.delete(ids)

    def Update(self, rectangles, ids, n: int | None = None) -> None:
        """Paper API parity (note the argument order)."""
        self.update(ids, rectangles)
