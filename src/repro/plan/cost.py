"""Backend pricing for one query batch: analytic priors.

This is the planner's valuation layer. For a batch it produces one
:class:`BackendEstimate` per candidate backend from the closed-form
analytic estimates of :mod:`repro.perfmodel.querycost` (traversal-shape
priors over the calibration constants). The planner layers the LBVH's
amortized build charge on top, charged only for the GASes whose LBVH is
not built yet.

Two backends are candidates for every predicate: the RT simulator (the
index's native path) and the software-GPU LBVH baseline, which answers
all three predicates exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.index import Predicate
from repro.perfmodel import querycost

#: Backend identifiers. ``rt`` is the simulated RT-core pipeline (the
#: index's native path); ``lbvh`` is the software-GPU LBVH baseline.
RT = "rt"
LBVH = "lbvh"


@dataclass
class BackendEstimate:
    """One backend's priced offer for a batch."""

    backend: str
    #: Analytic per-batch query seconds.
    query_s: float
    #: Amortized build charge added on top (0 when already built).
    build_s: float = 0.0
    #: Estimator detail (predicted k, cast op split, ...).
    detail: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        """The build-inclusive cost the planner compares."""
        return self.query_s + self.build_s

    def to_meta(self) -> dict:
        return {
            "query_s": float(self.query_s),
            "build_s": float(self.build_s),
            "total_s": float(self.total_s),
        }


def analytic_estimates(
    predicate: Predicate, n_queries: int, n_live: int, *, w: float
) -> dict[str, BackendEstimate]:
    """Analytic offers for both candidate backends.

    Build charges are layered on by the planner — this function is pure
    arithmetic and safe to call from tests.
    """
    n_q, n_p = int(n_queries), int(n_live)
    if predicate is Predicate.RANGE_INTERSECTS:
        rt_s, detail = querycost.rt_intersects_cost(n_q, n_p, w=w)
    else:
        rt_s, detail = querycost.rt_cast_cost(n_q, n_p)
    return {
        RT: BackendEstimate(RT, rt_s, detail=detail),
        LBVH: BackendEstimate(LBVH, querycost.lbvh_query_cost(n_q, n_p)),
    }
