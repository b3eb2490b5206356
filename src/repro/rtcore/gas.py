"""Geometry Acceleration Structure (paper §2.3).

A GAS is the BVH built over one batch of primitives. Mirroring OptiX:

- building returns an opaque *traversal handle* (here: the object itself);
- the primitive buffer can be updated in place and the structure *refit*
  (fast, keeps topology, may degrade quality);
- primitives cannot be inserted or deleted — that limitation is what
  forces LibRTS's two-level IAS design (§4.1).
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.geometry.boxes import Boxes
from repro.rtcore.bvh import BVH
from repro.rtcore.kernel import Candidates
from repro.rtcore.stats import TraversalStats


class GeometryAS:
    """A BVH over one batch of AABB primitives.

    ``builder`` selects the driver's build preset: ``"fast_build"`` is
    the Morton construction (the default — what GPU drivers run for
    dynamic content), ``"fast_trace"`` the binned-SAH build of
    :class:`~repro.rtcore.sah.SAHBVH` (higher quality, higher build
    cost).

    .. note::
       The ``fast_trace`` preset clamps ``leaf_size`` to a minimum of 2
       (binned SAH splits stop paying below two primitives per leaf), so
       ``leaf_size=1`` does **not** yield hardware-exact IS invocation
       counts under ``fast_trace`` — a :class:`UserWarning` flags the
       clamp. Use the default ``fast_build`` when exact per-ray IS
       counts matter (see docs/API.md, "Builder presets").
    """

    #: The planner's LBVH over :attr:`boxes`, or ``None`` until a planned
    #: batch needs it (:func:`repro.plan.backends.gas_lbvh`). It is
    #: published whole by one assignment, so concurrent readers of a
    #: shared GAS see either no tree or a finished one. Every geometry
    #: change drops it, and copies never carry it (:meth:`__getstate__`).
    lbvh = None

    def __init__(self, boxes: Boxes, leaf_size: int = 1, builder: str = "fast_build"):
        self.boxes = boxes
        self.builder = builder
        if builder == "fast_build":
            self.bvh = BVH(boxes, leaf_size=leaf_size)
        elif builder == "fast_trace":
            from repro.rtcore.sah import SAHBVH

            if leaf_size < 2:
                warnings.warn(
                    "builder='fast_trace' clamps leaf_size to 2: IS "
                    "invocation counts will not be hardware-exact "
                    "(leaf_size=1); use builder='fast_build' if exact "
                    "per-ray IS counts matter",
                    UserWarning,
                    stacklevel=2,
                )
            self.bvh = SAHBVH(boxes, leaf_size=max(leaf_size, 2))
        else:
            raise ValueError(f"unknown builder {builder!r}")
        #: Number of refits since the last full (re)build — the quality
        #: heuristic callers can use to decide when to rebuild (§4.2).
        self.refit_count = 0

    def __len__(self) -> int:
        return len(self.boxes)

    def __getstate__(self) -> dict:
        """Copies leave the LBVH behind: a copy-on-write copy is made to
        be refit."""
        state = dict(self.__dict__)
        state.pop("lbvh", None)
        return state

    @property
    def ndim(self) -> int:
        return self.boxes.ndim

    def update_primitives(self, ids: np.ndarray, new: Boxes) -> None:
        """Overwrite primitive coordinates and refit (OptiX BVH update)."""
        self.boxes.overwrite(ids, new)
        self.bvh.refit()
        self.refit_count += 1
        self.lbvh = None

    def degenerate_primitives(self, ids: np.ndarray) -> None:
        """Collapse primitives to unhittable extents and refit (§4.2
        deletion)."""
        self.boxes.degenerate(ids)
        self.bvh.refit()
        self.refit_count += 1
        self.lbvh = None

    def rebuild(self) -> None:
        """Full rebuild at current coordinates (restores quality)."""
        self.bvh.rebuild()
        self.refit_count = 0
        self.lbvh = None

    def traverse(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        tmins: np.ndarray,
        tmaxs: np.ndarray,
        stats: TraversalStats,
        tracer=None,
    ) -> Candidates:
        """Cast rays into this GAS; candidate ``prims`` are local ids."""
        return self.bvh.traverse(origins, dirs, tmins, tmaxs, stats, tracer=tracer)

    def prim_boxes(self, cand: Candidates) -> tuple[np.ndarray, np.ndarray]:
        """``(mins, maxs)`` of each candidate's own primitive AABB."""
        return self.boxes.mins[cand.prims], self.boxes.maxs[cand.prims]
