"""Compaction pricing for the churn subsystem (see docs/PERFMODEL.md).

A :class:`~repro.churn.ChurnIndex` that keeps absorbing mutations pays a
recurring traversal tax: tombstoned main-structure slots still get their
(stale) geometry traversed, and every delta batch adds BVH nodes the
fan-out must visit. Folding the delta back into one fresh main build
(:meth:`~repro.churn.ChurnIndex.compact`) removes that tax at the
one-time cost priced here. When to pay it is decided by the churn
index's structural triggers, not by this module.
"""

from __future__ import annotations

from repro.perfmodel.build import BuildModel


def compaction_build_cost(n_live: int) -> float:
    """Simulated seconds to fold the delta into a fresh main structure:
    one GAS build over every live rectangle plus the single-instance IAS
    relink."""
    return BuildModel.optix_gas_build(n_live) + BuildModel.ias_build(1)
