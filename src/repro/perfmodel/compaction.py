"""Compaction pricing for the churn subsystem (see docs/PERFMODEL.md).

A :class:`~repro.churn.ChurnIndex` that keeps absorbing mutations pays a
recurring traversal tax: tombstoned main-structure slots still get their
(stale) geometry traversed, and every delta batch adds BVH nodes the
fan-out must visit. Folding the delta back into one fresh main build
(:meth:`~repro.churn.ChurnIndex.compact`) removes that tax at a one-time
cost. This module prices both sides of that trade so the counter-drift
compaction trigger is a *priced decision* rather than a bare threshold:

- the **one-time cost** is a full GAS build over the live set plus a
  single-instance IAS build (:class:`~repro.perfmodel.build.BuildModel`);
- the **recurring benefit** is the observed per-query excess over the
  clean baseline — the drift factor measured from the per-ray
  ``nodes_visited`` counters (:mod:`repro.obs`) applied to the observed
  per-query cast time — integrated over a configured amortization
  horizon of expected future queries.

Compaction fires on drift when the integrated excess exceeds the rebuild
cost. The drift and cast-time inputs are live EWMAs, but the horizon is
a fixed query count, so query rate never enters the decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel.build import BuildModel


def compaction_build_cost(n_live: int) -> float:
    """Simulated seconds to fold the delta into a fresh main structure:
    one GAS build over every live rectangle plus the single-instance IAS
    relink."""
    return BuildModel.optix_gas_build(n_live) + BuildModel.ias_build(1)


@dataclass(frozen=True)
class CompactionDecision:
    """One evaluation of the priced drift trigger."""

    #: Whether the integrated excess pays for the rebuild.
    fire: bool
    #: Observed traversal drift factor (live nodes/ray over the clean
    #: baseline; >= 1).
    drift: float
    #: One-time rebuild cost in simulated seconds.
    rebuild_s: float
    #: Drift-attributed excess over the horizon, simulated seconds.
    excess_s: float
    #: Expected future queries the rebuild is amortized over.
    horizon: int

    def to_meta(self) -> dict:
        return {
            "fire": bool(self.fire),
            "drift": float(self.drift),
            "rebuild_s": float(self.rebuild_s),
            "excess_s": float(self.excess_s),
            "horizon": int(self.horizon),
        }


def priced_drift_decision(
    n_live: int,
    drift: float,
    per_query_s: float,
    horizon: int,
) -> CompactionDecision:
    """Price drift-triggered compaction: rebuild now vs keep paying.

    ``per_query_s`` is the observed per-query cast time at the *current*
    (drifted) structure; its clean-structure counterpart is estimated as
    ``per_query_s / drift`` — per-ray cast time is linear in nodes
    visited under the platform model, so the nodes/ray ratio transfers
    to time. The recurring excess ``per_query_s - per_query_s/drift``
    integrated over ``horizon`` future queries is compared against the
    one-time build cost of :func:`compaction_build_cost`.
    """
    drift = max(float(drift), 1.0)
    rebuild_s = compaction_build_cost(int(n_live))
    excess_per_query = max(float(per_query_s), 0.0) * (1.0 - 1.0 / drift)
    excess_s = excess_per_query * max(int(horizon), 0)
    return CompactionDecision(
        fire=excess_s > rebuild_s,
        drift=drift,
        rebuild_s=rebuild_s,
        excess_s=excess_s,
        horizon=int(horizon),
    )
