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
  AABB until compaction, which the delta-ratio trigger bounds by
  counting tombstones as churn debt. Delta-resident deletes use the native
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
design: that surplus is the deferred cost compaction pays off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.index import OpRecord, RTSIndex, _coerce_boxes
from repro.geometry.boxes import Boxes
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.perfmodel.compaction import compaction_build_cost
from repro.rtcore.gas import GeometryAS
from repro.rtcore.ias import InstanceAS


@dataclass(frozen=True)
class ChurnConfig:
    """Compaction-trigger policy for a :class:`ChurnIndex`.

    Both triggers read the structure only, so when a compaction fires
    depends on the mutation sequence, never on which reads ran.
    """

    #: Fire when churn debt — live delta slots plus main tombstones —
    #: exceeds this fraction of the live set (LSM size-ratio trigger).
    delta_ratio_max: float = 0.5
    #: Fire when cumulative delta-GAS refits since the last compaction
    #: exceed this count (the §4.2 refit-quality wear cap).
    refit_wear_max: int = 64
    #: Background compactor poll interval in seconds.
    poll_interval: float = 0.002

    def __post_init__(self):
        if not 0.0 < self.delta_ratio_max:
            raise ValueError("delta_ratio_max must be positive")
        if self.refit_wear_max < 1:
            raise ValueError("refit_wear_max must be >= 1")
        # nan would make the compactor's wait return at once (a busy
        # poll); inf overflows the wait and kills the compactor thread.
        if not (math.isfinite(self.poll_interval) and self.poll_interval > 0.0):
            raise ValueError("poll_interval must be positive and finite")


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
        delta batches, no tombstones, no delta-refit wear."""
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

    def _gauges(self) -> None:
        m = self.metrics
        m.set_gauge("churn.delta_fraction", self.delta_fraction())
        m.set_gauge("churn.delta_batches", self.n_delta_batches)
        m.set_gauge("churn.tombstones", self._n_tombstones)
        m.set_gauge("churn.delta_refits", self._delta_refits)

    def describe(self) -> dict:
        out = super().describe()
        # A structural drift estimate, not a measurement: a ray descends
        # every GAS root, so the GASes' summed ideal depths (tombstoned
        # slots still counted) over the ideal depth of one tree on the
        # live set. >= 1, and exactly 1.0 once compacted.
        depth = sum(math.log2(max(len(gas), 2)) for gas in self._gases)
        out["churn"] = {
            "main_batches": self._main_batches,
            "delta_batches": self.n_delta_batches,
            "tombstones": self._n_tombstones,
            "delta_refits": self._delta_refits,
            "delta_fraction": self.delta_fraction(),
            "drift_factor": max(depth, 1.0) / math.log2(max(self.n_rects, 2)),
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
        fresh metrics, null tracer — so building the reference never
        perturbs the index under test.
        """
        twin = self.fork()
        twin.metrics = MetricsRegistry()
        twin.tracer = NULL_TRACER
        twin.compact(reason="reference")
        return twin

    # -- triggers ----------------------------------------------------------------

    def compaction_due(self) -> dict | None:
        """Evaluate the two compaction triggers, read-only.

        Returns ``None`` or a dict with ``reason`` (``"delta-ratio"`` or
        ``"refit-wear"``) plus the trigger's evidence. Both read the
        structure alone, so the answer is a function of the mutation
        sequence since the last compaction."""
        cfg = self.churn
        fraction = self.delta_fraction()
        if fraction > cfg.delta_ratio_max:
            return {"reason": "delta-ratio", "delta_fraction": fraction}
        if self._delta_refits > cfg.refit_wear_max:
            return {"reason": "refit-wear", "delta_refits": self._delta_refits}
        return None

    def maybe_compact(self) -> dict | None:
        """Compact iff a trigger is due (the synchronous form of the
        background compactor's poll; benches use it for determinism)."""
        due = self.compaction_due()
        if due is None:
            return None
        summary = self.compact(reason=due["reason"])
        summary["trigger"] = due
        return summary

    # -- fork --------------------------------------------------------------------

    def _fork_extra(self, new: "RTSIndex") -> None:
        """Carry churn state across the copy-on-write fork: id maps are
        copied (each epoch owns its slot layout), the config is shared
        by reference."""
        new.churn = self.churn
        new._canon_id = self._canon_id.copy()
        new._pub_slot = self._pub_slot.copy()
        new._main_batches = self._main_batches
        new._delta_refits = self._delta_refits
        new._n_tombstones = self._n_tombstones
