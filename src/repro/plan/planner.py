"""The adaptive query planner (cost model + feedback loop).

For every planned batch the planner prices each candidate backend with
the analytic estimates of :mod:`repro.plan.cost`, corrects them with a
per-(workload signature, backend) EWMA learned from observed simulated
times, and picks the cheapest — with hysteresis in favour of the native
RT pipeline, so a baseline must beat it *decisively* before the planner
routes traffic away from the hardware path. The planner picks only the
backend: a batch that stays on the RT pipeline runs on the index's own
executor, sharded by the same static rule
(:func:`~repro.parallel.executor.plan_shards`) as an unplanned batch.

Correctness is planner-independent by construction: every candidate
backend implements the exact closed-box predicate semantics, sharding
is result/counter invariant, and the planner never consumes the index's
RNG — so a planned query returns bit-identical pairs to the equivalent
fixed-config run, and decision quality only moves *simulated time* (and
wall-clock). The feedback loop is deterministic: same observation
sequence, same corrections, same decisions.

Thread safety: feedback state sits behind a ``plan.planner`` lock (rank
35 — above the serve locks, below the obs leaves), so one planner can
serve concurrent sessions and every serving snapshot of an index shares
its parent's learned corrections.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.index import Predicate
from repro.lockorder import make_lock
from repro.plan.cost import (
    BASELINE_BACKENDS,
    RT,
    BackendEstimate,
    analytic_estimates,
)
from repro.plan.signature import WorkloadSignature

#: A baseline must be priced below this fraction of the RT estimate to
#: win a batch. <1 biases ties to the native pipeline and keeps the
#: planner from flapping when two corrected estimates are within noise.
HYSTERESIS = 0.7

#: Expected reuses of a freshly built baseline structure at one epoch;
#: its build cost is charged at 1/this per batch until actually built.
BUILD_AMORTIZATION = 64

#: EWMA smoothing of observed/estimated cost ratios (and of the observed
#: Range-Intersects selectivity). 0.2 ~ a 5-batch memory.
EWMA_ALPHA = 0.2

#: Corrections are clamped to this band so one pathological observation
#: cannot pin a backend's estimate at effectively zero or infinity.
CORRECTION_BAND = (0.05, 20.0)


@dataclass
class QueryPlan:
    """One batch's chosen backend, with its pricing."""

    signature: WorkloadSignature
    backend: str
    estimates: dict[str, BackendEstimate]
    n_queries: int
    n_live: int
    forced: str | None = None

    def to_meta(self) -> dict:
        """JSON-ready decision record attached to the result meta."""
        out = {
            "backend": self.backend,
            "signature": self.signature.as_tag(),
            "costs": {b: e.to_meta() for b, e in self.estimates.items()},
        }
        if self.forced:
            out["forced"] = self.forced
        detail = self.estimates[RT].detail if RT in self.estimates else {}
        if "k" in detail:
            out["predicted_k"] = int(detail["k"])
        return out


class QueryPlanner:
    """Chooses a backend per query batch, and learns.

    One planner instance may be shared across an index and all its forks
    (``repro.serve`` snapshots); its state is only the EWMA feedback
    dictionaries, guarded by the ``plan.planner`` lock.
    """

    def __init__(self):
        self._lock = make_lock("plan.planner")
        #: (signature, backend) -> EWMA of observed/estimated cost ratio.
        self._corrections: dict[tuple[WorkloadSignature, str], float] = {}
        #: signature -> EWMA of observed Range-Intersects selectivity.
        self._selectivity: dict[WorkloadSignature, float] = {}
        self.n_decisions = 0

    # -- snapshots (tests, bench fingerprints) -------------------------------

    def feedback_state(self) -> dict:
        """A copyable snapshot of the learned state."""
        with self._lock:
            return {
                "corrections": {
                    (s.as_tag(), b): v for (s, b), v in self._corrections.items()
                },
                "selectivity": {s.as_tag(): v for s, v in self._selectivity.items()},
                "n_decisions": self.n_decisions,
            }

    # -- planning ------------------------------------------------------------

    def plan(
        self,
        index,
        predicate: Predicate,
        n_queries: int,
        *,
        k: int | None = None,
    ) -> QueryPlan:
        """Price the candidates and choose a backend.

        ``k`` is the user's pinned multicast parameter: pinning k is an
        explicit request for the RT pipeline's knob, so the plan is
        forced to ``rt``. Empty batches and empty indexes are also
        forced to ``rt`` (nothing to win, and baselines would build over
        nothing). Never consumes ``index.rng``.
        """
        n_queries = int(n_queries)
        n_live = index.n_rects
        sig = WorkloadSignature.of(predicate, index.ndim, n_queries, n_live)
        forced = None
        if k is not None:
            forced = "k-pinned"
        elif n_queries == 0:
            forced = "empty-batch"
        elif n_live == 0:
            forced = "empty-index"

        with self._lock:
            corrections = {
                b: self._corrections.get((sig, b), 1.0) for b in (RT, *BASELINE_BACKENDS)
            }
            learned_s = self._selectivity.get(sig)

        estimates = analytic_estimates(
            predicate, n_queries, n_live, w=index.w, selectivity=learned_s
        )
        drift = float(index.rt_traversal_factor())
        if drift > 1.0:
            # Structure-quality degradation (the churn index's observed
            # traversal drift) taxes only the RT pipeline — baselines
            # rebuild per epoch, so the two-structure fan-out gets
            # priced out exactly when its wasted traversal says so.
            estimates[RT].query_s *= drift
            estimates[RT].detail["traversal_factor"] = drift
        for b, est in estimates.items():
            est.correction = corrections[b]
            if b in BASELINE_BACKENDS:
                est.build_s = self._build_charge(index, b, n_live)

        if forced is not None:
            backend = RT
        else:
            best = min(
                (estimates[b] for b in BASELINE_BACKENDS), key=lambda e: e.total_s
            )
            rt_total = estimates[RT].total_s
            backend = best.backend if best.total_s < HYSTERESIS * rt_total else RT

        plan = QueryPlan(
            signature=sig,
            backend=backend,
            estimates=estimates,
            n_queries=n_queries,
            n_live=n_live,
            forced=forced,
        )
        with self._lock:
            self.n_decisions += 1
        self._emit(index, plan)
        return plan

    def _build_charge(self, index, backend: str, n_live: int) -> float:
        """Amortized build cost of a baseline at the current epoch: zero
        when its cached structure is fresh, else 1/amortization of the
        full build (structures are reused across batches per epoch)."""
        from repro.perfmodel.querycost import backend_build_cost

        cached = index._baseline_cache.get(backend)
        if cached is not None and cached.epoch == index.epoch:
            return 0.0
        return backend_build_cost(backend, n_live) / BUILD_AMORTIZATION

    def _emit(self, index, plan: QueryPlan) -> None:
        """Record the decision as an obs span + metrics (observation
        only; a disabled tracer makes this free)."""
        m = index.metrics
        m.inc("plan.decisions")
        m.inc(f"plan.backend.{plan.backend}")
        if index.tracer.enabled:
            est = plan.estimates
            with index.tracer.span(
                "plan.decide",
                backend=plan.backend,
                signature=plan.signature.as_tag(),
                n_queries=plan.n_queries,
                n_live=plan.n_live,
                forced=plan.forced,
                **{f"cost_{b}": e.total_s for b, e in est.items()},
            ):
                pass

    # -- feedback ------------------------------------------------------------

    def observe(self, plan: QueryPlan, result) -> None:
        """Fold one executed batch back into the feedback state.

        Updates the chosen backend's cost-ratio EWMA from the observed
        simulated time, and (for Range-Intersects) the signature's
        selectivity EWMA from the observed pair count — the live
        counters that keep the analytic priors honest as the workload
        drifts."""
        est = plan.estimates.get(plan.backend)
        if est is None or plan.n_queries <= 0:
            return
        observed = float(result.sim_time)
        predicted = est.query_s
        lo, hi = CORRECTION_BAND
        updates = []
        if predicted > 0.0 and observed > 0.0:
            ratio = min(max(observed / predicted, lo), hi)
            updates.append((plan.signature, plan.backend, ratio))
        sel = None
        if plan.signature.predicate == Predicate.RANGE_INTERSECTS.value and plan.n_live:
            sel = len(result) / (plan.n_queries * plan.n_live)
        with self._lock:
            for sig, backend, ratio in updates:
                key = (sig, backend)
                prev = self._corrections.get(key, 1.0)
                self._corrections[key] = (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * ratio
            if sel is not None:
                prev = self._selectivity.get(plan.signature, sel)
                self._selectivity[plan.signature] = (
                    1.0 - EWMA_ALPHA
                ) * prev + EWMA_ALPHA * sel
