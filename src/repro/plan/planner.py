"""The query planner: a stateless choice between RT and the LBVH.

For every planned batch the planner prices both candidate backends with
the analytic estimates of :mod:`repro.plan.cost` and picks the cheaper —
with hysteresis in favour of the native RT pipeline, so the LBVH must
beat it *decisively* before the planner routes traffic away from the
hardware path. The planner picks only the backend: a batch that stays on
the RT pipeline runs on the index's own executor, sharded by the same
static rule (:func:`~repro.parallel.executor.plan_shards`) as an
unplanned batch.

Correctness is planner-independent by construction: both backends
implement the exact closed-box predicate semantics, sharding is
result/counter invariant, and the planner never consumes the index's
RNG — so a planned query returns bit-identical pairs to the equivalent
fixed-config run, and decision quality only moves *simulated time* (and
wall-clock). A decision is a pure function of the batch shape and the
index's state (live count, which GASes already carry their LBVH, churn
drift), so the planner holds no state and needs no lock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.index import Predicate
from repro.perfmodel.build import BuildModel
from repro.plan.cost import LBVH, RT, BackendEstimate, analytic_estimates

#: The LBVH must be priced below this fraction of the RT estimate to
#: win a batch. <1 biases ties to the native pipeline and keeps the
#: planner from flapping when two estimates are within noise.
HYSTERESIS = 0.7

#: Expected reuses of a freshly built GAS LBVH; its build cost is
#: charged at 1/this per batch until actually built.
BUILD_AMORTIZATION = 64


@dataclass
class QueryPlan:
    """One batch's chosen backend, with its pricing."""

    backend: str
    estimates: dict[str, BackendEstimate]
    n_queries: int
    n_live: int
    forced: str | None = None

    def to_meta(self) -> dict:
        """JSON-ready decision record attached to the result meta."""
        out = {
            "backend": self.backend,
            "costs": {b: e.to_meta() for b, e in self.estimates.items()},
        }
        if self.forced:
            out["forced"] = self.forced
        detail = self.estimates[RT].detail
        if "k" in detail:
            out["predicted_k"] = int(detail["k"])
        return out


class QueryPlanner:
    """Chooses a backend per query batch. Holds no state: any instance
    makes the same decision for the same index and batch."""

    def plan(
        self,
        index,
        predicate: Predicate,
        n_queries: int,
        *,
        k: int | None = None,
    ) -> QueryPlan:
        """Price both candidates and choose a backend.

        ``k`` is the user's pinned multicast parameter: pinning k is an
        explicit request for the RT pipeline's knob, so the plan is
        forced to ``rt``. Empty batches and empty indexes are also
        forced to ``rt`` (nothing to win, and the LBVH would build over
        nothing). Never consumes ``index.rng``.
        """
        n_queries = int(n_queries)
        n_live = index.n_rects
        forced = None
        if k is not None:
            forced = "k-pinned"
        elif n_queries == 0:
            forced = "empty-batch"
        elif n_live == 0:
            forced = "empty-index"

        estimates = analytic_estimates(predicate, n_queries, n_live, w=index.w)
        drift = float(index.rt_traversal_factor())
        if drift > 1.0:
            # Structure-quality degradation (the churn index's observed
            # traversal drift) taxes only the RT pipeline. The LBVH route
            # walks the same delta fan-out and tombstones, but the drift
            # EWMAs are fed by RT counters alone; until drift is measured
            # from the structure itself, an LBVH tax would be a guess.
            # Drift is measured in nodes per ray, so it scales the
            # data-side traversal work, not launch floors or builds.
            rt = estimates[RT]
            rt.query_s += (drift - 1.0) * rt.detail["traversal_s"]
            rt.detail["traversal_factor"] = drift
        estimates[LBVH].build_s = _build_charge(index)

        if forced is None and (
            estimates[LBVH].total_s < HYSTERESIS * estimates[RT].total_s
        ):
            backend = LBVH
        else:
            backend = RT

        plan = QueryPlan(
            backend=backend,
            estimates=estimates,
            n_queries=n_queries,
            n_live=n_live,
            forced=forced,
        )
        _emit(index, plan)
        return plan


def _build_charge(index) -> float:
    """Amortized LBVH build cost: 1/amortization of the builds of the
    non-empty GASes whose LBVH is not built yet (zero once every one
    is; a built LBVH lives until its GAS's geometry changes)."""
    unbuilt = sum(
        BuildModel.lbvh_build(len(gas))
        for gas in index._gases
        if len(gas) and gas.lbvh is None
    )
    return unbuilt / BUILD_AMORTIZATION


def _emit(index, plan: QueryPlan) -> None:
    """Record the decision as an obs span + metrics (observation only; a
    disabled tracer makes this free)."""
    m = index.metrics
    m.inc("plan.decisions")
    m.inc(f"plan.backend.{plan.backend}")
    if index.tracer.enabled:
        with index.tracer.span(
            "plan.decide",
            backend=plan.backend,
            n_queries=plan.n_queries,
            n_live=plan.n_live,
            forced=plan.forced,
            **{f"cost_{b}": e.total_s for b, e in plan.estimates.items()},
        ):
            pass
