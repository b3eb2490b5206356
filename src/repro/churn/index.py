"""The churn index: delta GASes + tombstones over a refit-free main.

:class:`ChurnIndex` subclasses :class:`~repro.core.index.RTSIndex` and
reinterprets its batch machinery as an LSM split: the first
``_main_batches`` GASes are the *main* structure and every later batch
is *delta*. The three write paths then become:

- **insert** — the batch lands as a fresh delta GAS through the ordinary
  base path (that path is already O(batch)).
- **delete of a main-resident rectangle** — a *tombstone*: the global
  view buffers are degenerated (so exact IS-shader predicates and
  ``live_ids`` drop the slot immediately) but the main GAS keeps its
  stale geometry and is **never refit**. Rays keep traversing the stale
  AABB until compaction; that wasted traversal is precisely the drift
  the compactor watches. Delta-resident deletes use the native
  degenerate-and-refit path — delta GASes are small, so refits there
  are cheap and their wear is bounded by the refit-wear trigger.
- **update** — delta-resident slots refit natively; main-resident (and
  long-gone) slots tombstone the old geometry and re-insert the new
  coordinates as delta, preserving the public id.

Public ids survive compaction through one indirection pair:
``_canon_id`` maps internal slots to public ids (exposed to the query
kernels via the ``_remap`` hook, applied at result emission), and
``_pub_slot`` maps public ids back to their current internal slot.
Queries run the inherited main+delta IAS fan-out, so per-instance
counters merge exactly like shard merges, and responses are
bit-identical to a monolithic index over the live set
(:meth:`to_monolithic` — see the equivalence contract below).

**Equivalence contract** (enforced by ``tests/churn``): at *every*
epoch, pairs, k-resolution and ``results_emitted`` (plus the whole
backward pass of Range-Intersects) are bit-identical to the compacted
reference. Forward-side ``nodes_visited``/``is_invocations`` agree at
every *compacted* epoch and drift upward between compactions — by
design: that divergence is the signal, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import tsan
from repro.core.index import OpRecord, RTSIndex, _coerce_boxes
from repro.geometry.boxes import Boxes
from repro.lockorder import make_lock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.perfmodel.compaction import compaction_build_cost, priced_drift_decision
from repro.rtcore.gas import GeometryAS
from repro.rtcore.ias import InstanceAS


@dataclass(frozen=True)
class ChurnConfig:
    """Compaction-trigger policy for a :class:`ChurnIndex`.

    The first two triggers are unconditional safety caps; the third is
    the priced decision (:mod:`repro.perfmodel.compaction`).
    """

    #: Fire when churn debt — live delta slots plus main tombstones —
    #: exceeds this fraction of the live set (LSM size-ratio trigger).
    delta_ratio_max: float = 0.5
    #: Fire when cumulative delta-GAS refits since the last compaction
    #: exceed this count (the §4.2 refit-quality wear cap).
    refit_wear_max: int = 64
    #: Minimum observed traversal drift (live nodes/ray over the clean
    #: baseline) before the priced drift decision is even evaluated.
    drift_threshold: float = 1.15
    #: Future queries the compaction build cost is amortized over in the
    #: priced drift decision.
    horizon: int = 512
    #: Drifted-state query observations required before the drift
    #: trigger may fire (EWMAs need samples to mean anything).
    min_observations: int = 8
    #: EWMA smoothing factor for the drift/cost observations.
    alpha: float = 0.3
    #: Background compactor poll interval in seconds.
    poll_interval: float = 0.002

    def __post_init__(self):
        if not 0.0 < self.delta_ratio_max:
            raise ValueError("delta_ratio_max must be positive")
        if self.refit_wear_max < 1:
            raise ValueError("refit_wear_max must be >= 1")
        if self.drift_threshold < 1.0:
            raise ValueError("drift_threshold must be >= 1.0")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.poll_interval <= 0.0:
            raise ValueError("poll_interval must be positive")


@tsan.instrument("query_s", "n_clean", "n_live",
                 containers=("clean_npr", "live_npr"))
class ChurnState:
    """Drift EWMAs shared across an index and all its forks.

    ``repro.serve`` mutates by forking the current snapshot, so any
    state that must accumulate *across* epochs has to be shared by
    reference, exactly like the metrics registry. Guarded by the
    ``churn.state`` lock (rank 38 — see :mod:`repro.lockorder`): the
    compactor reads it while holding its own lock, the planner reads it
    to price a batch, and queries write it at result-record time.

    Two traversal-quality EWMAs are kept per predicate: ``clean`` is
    updated only while the structure is clean (single main GAS, no
    tombstones, no delta-refit wear — i.e. at seed and right after a
    compaction) and serves as the baseline; ``live`` always tracks the
    current level. Their ratio is the drift factor. The quality metric
    is nodes visited per ray *normalized by the ideal log2 depth of the
    live set* (:meth:`ChurnIndex._traversal_quality`): delta fan-out
    raises raw nodes/ray directly, while tombstones leave raw traversal
    flat but shrink the live set a clean structure would be built over —
    normalizing by the ideal depth registers both as drift. A per-query
    cast-time EWMA feeds the priced compaction decision
    (:meth:`ChurnIndex.compaction_due`); the planner reads only the
    drift factor.
    """

    def __init__(self, alpha: float = 0.3):
        self.alpha = float(alpha)
        self.lock = make_lock("churn.state")
        self.clean_npr: dict[str, float] = {}
        self.live_npr: dict[str, float] = {}
        self.query_s: float | None = None
        self.n_clean = 0
        self.n_live = 0

    def _ewma(self, prev: float | None, x: float) -> float:
        return x if prev is None else (1.0 - self.alpha) * prev + self.alpha * x

    def observe(self, pred: str, nodes_per_ray: float, per_query_s: float, clean: bool) -> None:
        """Fold one query's traversal level into the EWMAs."""
        with self.lock:
            if clean:
                self.clean_npr[pred] = self._ewma(self.clean_npr.get(pred), nodes_per_ray)
                # A clean observation *is* the current live level.
                self.live_npr[pred] = self.clean_npr[pred]
                self.n_clean += 1
            else:
                self.live_npr[pred] = self._ewma(self.live_npr.get(pred), nodes_per_ray)
                self.n_live += 1
            self.query_s = self._ewma(self.query_s, per_query_s)

    def drift_factor(self) -> float:
        """Worst per-predicate live/clean nodes-per-ray ratio, >= 1."""
        with self.lock:
            worst = 1.0
            for pred, live in self.live_npr.items():
                clean = self.clean_npr.get(pred)
                if clean is not None and clean > 0.0:
                    worst = max(worst, live / clean)
            return worst

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "clean_npr": dict(self.clean_npr),
                "live_npr": dict(self.live_npr),
                "query_s": self.query_s,
                "n_clean": self.n_clean,
                "n_live": self.n_live,
            }

    def reset(self) -> None:
        """Re-anchor after a compaction: the structure is clean again, so
        the live level snaps back to the baseline (which is kept — new
        clean observations keep refining it) and the drifted-observation
        count restarts."""
        with self.lock:
            self.live_npr = dict(self.clean_npr)
            self.n_live = 0


class ChurnIndex(RTSIndex):
    """A mutable index whose main structure is never refit.

    Accepts every :class:`~repro.core.index.RTSIndex` constructor
    argument plus ``churn`` (a :class:`ChurnConfig`). The mutation API
    speaks *public ids*: ``insert`` returns them, ``delete``/``update``
    take them, and they are stable across compactions even though the
    internal slot layout is rewritten. Query results report public ids.
    """

    def __init__(self, data=None, *, churn: ChurnConfig | None = None, **kwargs):
        # Churn bookkeeping must exist before the base constructor runs:
        # it may call our insert() override for the seed data.
        self.churn = churn if churn is not None else ChurnConfig()
        self._canon_id = np.empty(0, dtype=np.int64)
        self._pub_slot = np.empty(0, dtype=np.int64)
        self._main_batches = 0
        self._delta_refits = 0
        self._n_tombstones = 0
        self._state = ChurnState(alpha=self.churn.alpha)
        super().__init__(None, **kwargs)
        if data is not None:
            self.insert(data)
        # The seed is blessed as main: a freshly constructed index is
        # clean by definition, whatever batch count it arrived in.
        self._main_batches = self.n_batches

    @classmethod
    def from_index(cls, index: RTSIndex, *, churn: ChurnConfig | None = None) -> "ChurnIndex":
        """Wrap an existing plain index as a churn index.

        The wrap forks (copy-on-write, no BVH work), so the original is
        untouched; its current global ids become the public ids. Used by
        ``repro.serve`` to enable the churn write path over a seed index
        the caller built. Passing a :class:`ChurnIndex` just rebinds its
        config.
        """
        if isinstance(index, ChurnIndex):
            if churn is not None:
                index.churn = churn
            return index
        twin = index.fork()
        self = object.__new__(cls)
        self.__dict__.update(twin.__dict__)
        self.churn = churn if churn is not None else ChurnConfig()
        self._canon_id = np.arange(len(self), dtype=np.int64)
        self._pub_slot = np.arange(len(self), dtype=np.int64)
        self._main_batches = self.n_batches
        self._delta_refits = 0
        self._n_tombstones = 0
        self._state = ChurnState(alpha=self.churn.alpha)
        return self

    # -- structure split ---------------------------------------------------------

    @property
    def _remap(self):
        """Kernel-side emission remap: internal slot -> public id."""
        return self._canon_id

    @property
    def _main_cut(self) -> int:
        """First internal slot belonging to the delta (main/delta split
        point in slot space)."""
        return int(self._prefix[self._main_batches])

    @property
    def n_delta_batches(self) -> int:
        return self.n_batches - self._main_batches

    @property
    def is_clean(self) -> bool:
        """True when the structure equals its own compacted form: no
        delta batches, no tombstones, no delta-refit wear. Gates the
        clean-baseline EWMA in :class:`ChurnState`."""
        return (
            self.n_batches == self._main_batches
            and self._n_tombstones == 0
            and self._delta_refits == 0
        )

    def delta_fraction(self) -> float:
        """Churn debt — live delta slots plus main tombstones — as a
        fraction of the live set."""
        n_live = self.n_rects
        if n_live == 0:
            return 0.0
        delta_live = int((~self._deleted[self._main_cut:]).sum())
        return (delta_live + self._n_tombstones) / n_live

    def rt_traversal_factor(self) -> float:
        """Observed drift multiplier for the planner's RT estimate."""
        return self._state.drift_factor()

    def _gauges(self) -> None:
        m = self.metrics
        m.set_gauge("churn.delta_fraction", self.delta_fraction())
        m.set_gauge("churn.delta_batches", self.n_delta_batches)
        m.set_gauge("churn.tombstones", self._n_tombstones)
        m.set_gauge("churn.delta_refits", self._delta_refits)

    def describe(self) -> dict:
        out = super().describe()
        out["churn"] = {
            "main_batches": self._main_batches,
            "delta_batches": self.n_delta_batches,
            "tombstones": self._n_tombstones,
            "delta_refits": self._delta_refits,
            "delta_fraction": self.delta_fraction(),
            "drift_factor": self._state.drift_factor(),
            "clean": self.is_clean,
        }
        return out

    def __repr__(self) -> str:
        return (
            f"ChurnIndex(live={self.n_rects}, main_batches={self._main_batches}, "
            f"delta_batches={self.n_delta_batches}, tombstones={self._n_tombstones}, "
            f"ndim={self.ndim}, dtype={self.dtype})"
        )

    # -- public-id plumbing ------------------------------------------------------

    def _check_public(self, ids: np.ndarray) -> None:
        if len(ids) and (ids.min() < 0 or ids.max() >= len(self._pub_slot)):
            raise IndexError("public rectangle id out of range")

    def _append_slots(self, internal: np.ndarray, pub: np.ndarray) -> None:
        """Bind freshly inserted internal slots to public ids."""
        self._canon_id = np.concatenate([self._canon_id, pub])
        if pub.size and int(pub.max()) >= len(self._pub_slot):
            grown = np.concatenate(
                [
                    self._pub_slot,
                    np.full(int(pub.max()) + 1 - len(self._pub_slot), -1, dtype=np.int64),
                ]
            )
            self._pub_slot = grown
        self._pub_slot[pub] = internal

    def _tombstone(self, slots: np.ndarray) -> None:
        """Kill main-resident slots without touching the main GAS.

        Only the global view buffers change: exact predicates and
        ``live_ids`` stop reporting the slot immediately, while the main
        BVH keeps traversing the stale geometry until compaction. The
        z-flattened shadow IAS and the main GAS's planner LBVH mirror GAS
        geometry, which is untouched, so both stay valid. Priced at zero simulated seconds — the
        deferred cost surfaces as traversal drift, which is the point.
        """
        self._deleted[slots] = True
        self._mins[slots] = np.inf
        self._maxs[slots] = -np.inf
        self._n_tombstones += len(slots)

    def _collapse_ops(self, start: int, op: str, count: int) -> None:
        """Fold the base-path sub-records of one composite churn mutation
        into a single :class:`OpRecord`, so per-op accounting (Figure
        10c's update costs) sees churn ops, not their internals."""
        added = self.op_log[start:]
        sim = float(sum(r.sim_time for r in added))
        del self.op_log[start:]
        self.op_log.append(OpRecord(op, count, sim))

    # -- mutation (public-id API) ------------------------------------------------

    def insert(self, data) -> np.ndarray:
        """Insert a batch as a new delta GAS; returns *public* ids."""
        internal = super().insert(data)
        if len(internal) == 0:
            return internal
        base = len(self._pub_slot)
        pub = np.arange(base, base + len(internal), dtype=np.int64)
        self._append_slots(internal, pub)
        self._gauges()
        return pub

    def delete(self, ids) -> None:
        """Delete by public id. Delta-resident rectangles use the native
        degenerate-and-refit path; main-resident ones are tombstoned with
        the main GAS untouched. Already-dead ids are skipped."""
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        if len(ids) == 0:
            return
        self._check_public(ids)
        slots = self._pub_slot[ids]
        slots = slots[slots >= 0]
        slots = slots[~self._deleted[slots]]
        if len(slots) == 0:
            return
        cut = self._main_cut
        delta_slots = slots[slots >= cut]
        main_slots = slots[slots < cut]
        n_ops = len(self.op_log)
        if len(delta_slots):
            batches = np.unique(
                np.searchsorted(self._prefix, delta_slots, side="right") - 1
            )
            super().delete(delta_slots)
            self._delta_refits += len(batches)
        if len(main_slots):
            self._tombstone(main_slots)
            self.epoch += 1
        self._collapse_ops(n_ops, "delete", len(slots))
        self._gauges()

    def update(self, ids, new_data) -> None:
        """Move rectangles by public id. Delta-resident slots (live or
        dead — updating a dead id resurrects, matching the base
        contract) refit in place; main-resident and compacted-away ids
        tombstone the old slot and land the new coordinates as delta,
        keeping the public id."""
        ids = np.asarray(ids, dtype=np.int64)
        new = _coerce_boxes(new_data, self.ndim, self.dtype)
        if len(new) != len(ids):
            raise ValueError("ids and new rectangles must align")
        if new.is_degenerate().any():
            raise ValueError("use delete() for degenerate rectangles")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("duplicate ids in one update batch")
        if len(ids) == 0:
            return
        self._check_public(ids)
        slots = self._pub_slot[ids]
        cut = self._main_cut
        in_delta = slots >= cut
        n_ops = len(self.op_log)
        if in_delta.any():
            batches = np.unique(
                np.searchsorted(self._prefix, slots[in_delta], side="right") - 1
            )
            super().update(slots[in_delta], new[in_delta])
            self._delta_refits += len(batches)
        moved = ~in_delta
        if moved.any():
            old = slots[moved]
            live_old = old[(old >= 0) & ~self._deleted[np.maximum(old, 0)]]
            if len(live_old):
                self._tombstone(live_old)
            internal = super().insert(new[moved])
            self._append_slots(internal, ids[moved])
        self._collapse_ops(n_ops, "update", len(ids))
        self._gauges()

    # -- compaction --------------------------------------------------------------

    def compact(self, reason: str = "manual") -> dict:
        """Fold delta + main into one freshly built GAS over the live
        set, dropping tombstoned slots entirely.

        Live rectangles keep their internal relative order (ascending
        slot), which together with the preserved public-id map makes the
        compacted index bit-identical — structure, counters, RNG-driven
        k prediction — to :meth:`to_monolithic` output built from the
        pre-compaction state. Priced as one full GAS build plus the IAS
        relink (:func:`~repro.perfmodel.compaction.compaction_build_cost`).
        """
        with self.tracer.span(
            "churn.compact",
            reason=reason,
            live=self.n_rects,
            batches=self.n_batches,
            tombstones=self._n_tombstones,
        ) as sp:
            live = np.flatnonzero(~self._deleted)
            # Two independent fancy-index copies: the GAS must not alias
            # the view buffers (delete degenerates views first, GAS
            # geometry second — aliasing would fuse those steps).
            gas_boxes = Boxes(self._mins[live], self._maxs[live], dtype=self.dtype)
            gas = GeometryAS(gas_boxes, leaf_size=self.leaf_size, builder=self.builder)
            self._mins = self._mins[live]
            self._maxs = self._maxs[live]
            self._deleted = np.zeros(len(live), dtype=bool)
            self._gases = [gas]
            self._ias = InstanceAS()
            self._ias.add_instance(gas, instance_id=0)
            self._prefix = np.array([0, len(live)], dtype=np.int64)
            canon_live = self._canon_id[live]
            self._canon_id = canon_live
            pub = np.full(len(self._pub_slot), -1, dtype=np.int64)
            pub[canon_live] = np.arange(len(live), dtype=np.int64)
            self._pub_slot = pub
            self._flat_ias_cache = None
            self._shared_gases = set()
            self._main_batches = 1
            self._delta_refits = 0
            self._n_tombstones = 0
            self.epoch += 1
            sim = compaction_build_cost(len(live))
            self.op_log.append(OpRecord("compact", len(live), sim))
            self._state.reset()
            self.metrics.inc("churn.compactions")
            self.metrics.inc(f"churn.compactions.{reason}")
            self.metrics.inc("churn.compact_sim_time", sim)
            self._gauges()
            summary = {
                "reason": reason,
                "live": int(len(live)),
                "epoch": self.epoch,
                "sim_time": sim,
            }
            if self.tracer.enabled:
                sp.sim_time = sim
        return summary

    def rebuild(self) -> None:
        """The base index's quality remedy maps to a manual compaction
        (and additionally drops dead slots — public ids are unaffected)."""
        self.compact(reason="manual")

    def to_monolithic(self) -> "ChurnIndex":
        """The equivalence reference: a compacted copy over the live set.

        Forks (cloning the RNG mid-stream, so k prediction continues
        identically) and compacts the fork. Observability is detached —
        fresh metrics, null tracer, private drift state — so building the
        reference never perturbs the index under test.
        """
        twin = self.fork()
        twin.metrics = MetricsRegistry()
        twin.tracer = NULL_TRACER
        twin._state = ChurnState(alpha=self.churn.alpha)
        twin.compact(reason="reference")
        return twin

    # -- triggers ----------------------------------------------------------------

    def compaction_due(self) -> dict | None:
        """Evaluate the three compaction triggers, read-only.

        Returns ``None`` or a dict with ``reason`` (``"delta-ratio"``,
        ``"refit-wear"`` or ``"counter-drift"``) plus the trigger's
        evidence. The drift trigger additionally requires the priced
        decision to fire (integrated excess > rebuild cost)."""
        cfg = self.churn
        fraction = self.delta_fraction()
        if fraction > cfg.delta_ratio_max:
            return {"reason": "delta-ratio", "delta_fraction": fraction}
        if self._delta_refits > cfg.refit_wear_max:
            return {"reason": "refit-wear", "delta_refits": self._delta_refits}
        state = self._state.snapshot()
        if state["n_live"] < cfg.min_observations or state["query_s"] is None:
            return None
        drift = self._state.drift_factor()
        if drift < cfg.drift_threshold:
            return None
        decision = priced_drift_decision(
            self.n_rects, drift, state["query_s"], cfg.horizon
        )
        if not decision.fire:
            return None
        return {"reason": "counter-drift", **decision.to_meta()}

    def maybe_compact(self) -> dict | None:
        """Compact iff a trigger is due (the synchronous form of the
        background compactor's poll; benches use it for determinism)."""
        due = self.compaction_due()
        if due is None:
            return None
        summary = self.compact(reason=due["reason"])
        summary["trigger"] = due
        return summary

    # -- observation hook --------------------------------------------------------

    def _traversal_quality(self, nodes_per_ray: float) -> float:
        """Nodes/ray over the ideal log2 depth of the live set — the
        structure-quality number the drift EWMAs track. Delta batches
        raise nodes/ray directly (every ray visits every GAS root);
        tombstones leave raw traversal flat while the live set shrinks,
        so dividing by the ideal depth of *today's* live set makes both
        read as quality loss against a freshly compacted structure."""
        return nodes_per_ray / float(np.log2(max(self.n_rects, 2)))

    def _record_metrics(self, predicate, result) -> None:
        """Feed the drift EWMAs from the counters every query already
        produces. Forward/R-side traversal is what compaction resets, so
        only that pass's nodes/ray and cast time are observed; planner
        baseline answers carry no traversal counters and are skipped."""
        super()._record_metrics(predicate, result)
        stats = result.meta.get("stats_obj")
        cast_s = result.phases.get("cast", 0.0)
        if stats is None:
            stats = result.meta.get("forward_stats_obj")
            cast_s = result.phases.get("forward_cast", 0.0)
        if stats is None or stats.n_rays == 0:
            return
        nodes_per_ray = float(stats.nodes_visited.sum()) / float(stats.n_rays)
        per_query_s = float(cast_s) / float(stats.n_rays)
        self._state.observe(
            predicate.value,
            self._traversal_quality(nodes_per_ray),
            per_query_s,
            clean=self.is_clean,
        )

    # -- fork --------------------------------------------------------------------

    def _fork_extra(self, new: "RTSIndex") -> None:
        """Carry churn state across the copy-on-write fork: id maps are
        copied (each epoch owns its slot layout), while the config and
        the drift EWMAs are shared by reference like the metrics
        registry — drift accumulates across published epochs."""
        new.churn = self.churn
        new._canon_id = self._canon_id.copy()
        new._pub_slot = self._pub_slot.copy()
        new._main_batches = self._main_batches
        new._delta_refits = self._delta_refits
        new._n_tombstones = self._n_tombstones
        new._state = self._state
