"""Axis-aligned boxes stored struct-of-arrays.

A :class:`Boxes` holds ``mins`` and ``maxs`` arrays of shape ``(n, d)``.
This mirrors the AABB arrays handed to OptiX when building a BVH over
custom primitives (paper §2.2): LibRTS turns every indexed rectangle into
exactly one AABB, and in 2-D pins the unused z extent to zero.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Supported coordinate dtypes, matching the paper's COORD_T template
#: parameter (float or double).
COORD_DTYPES = (np.float32, np.float64)


def as_coord_array(data, dtype=None) -> np.ndarray:
    """Coerce ``data`` to a 2-D C-contiguous coordinate array.

    ``dtype`` defaults to float64 unless ``data`` already carries a
    supported floating dtype, in which case it is preserved (views, not
    copies, whenever possible).
    """
    arr = np.asarray(data)
    if dtype is None:
        dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a (n, d) coordinate array, got shape {arr.shape}")
    return arr


class Boxes:
    """A set of *n* axis-aligned boxes in *d* dimensions (d = 2 or 3).

    Parameters
    ----------
    mins, maxs:
        ``(n, d)`` arrays of minimum and maximum corners. Degenerate boxes
        (``min > max`` on any axis) are permitted: they represent deleted
        primitives (paper §4.2) and are never hit by any ray or predicate.
    """

    __slots__ = ("mins", "maxs")

    def __init__(self, mins, maxs, dtype=None):
        self.mins = as_coord_array(mins, dtype)
        self.maxs = as_coord_array(maxs, self.mins.dtype)
        if self.mins.shape != self.maxs.shape:
            raise ValueError(
                f"mins/maxs shape mismatch: {self.mins.shape} vs {self.maxs.shape}"
            )
        if self.ndim not in (2, 3):
            raise ValueError(f"only 2-D and 3-D boxes are supported, got d={self.ndim}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_interleaved(cls, arr, dtype=None) -> "Boxes":
        """Build from an ``(n, 2*d)`` array laid out ``[min_0..min_d, max_0..max_d]``."""
        arr = as_coord_array(arr, dtype)
        if arr.shape[1] % 2 != 0 or arr.shape[1] == 0:
            raise ValueError(
                f"interleaved boxes need an even column count (2*d), got "
                f"shape {arr.shape}"
            )
        d = arr.shape[1] // 2
        return cls(arr[:, :d], arr[:, d:])

    @classmethod
    def empty(cls, ndim: int = 2, dtype=np.float64) -> "Boxes":
        """A set of zero boxes."""
        z = np.empty((0, ndim), dtype=dtype)
        return cls(z, z.copy())

    @classmethod
    def from_points(cls, points, dtype=None) -> "Boxes":
        """Zero-extent boxes, one per point (used to index point data)."""
        pts = as_coord_array(points, dtype)
        return cls(pts, pts.copy())

    # -- basic properties --------------------------------------------------

    def __len__(self) -> int:
        return self.mins.shape[0]

    @property
    def ndim(self) -> int:
        """Spatial dimensionality d (2 or 3)."""
        return self.mins.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.mins.dtype

    def __repr__(self) -> str:
        return f"Boxes(n={len(self)}, d={self.ndim}, dtype={self.dtype})"

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return zip(self.mins, self.maxs)

    def __getitem__(self, idx) -> "Boxes":
        if isinstance(idx, (list, np.ndarray)):
            ids = np.asarray(idx)
            # Integer gathers take whole rows: far cheaper than (n, d)
            # fancy indexing. Masks, slices and scalars index as numpy does.
            if ids.ndim and ids.dtype.kind in "iu" and np.can_cast(ids.dtype, np.intp):
                return Boxes(np.take(self.mins, ids, axis=0), np.take(self.maxs, ids, axis=0))
        return Boxes(np.atleast_2d(self.mins[idx]), np.atleast_2d(self.maxs[idx]))

    # -- derived geometry ---------------------------------------------------

    def centers(self) -> np.ndarray:
        """Center points, shape ``(n, d)`` — the Range-Contains reduction
        (paper §3.2) casts point-query rays from these.

        Degenerate (deleted) boxes have no center; their rows come back
        NaN, which downstream consumers treat as "nowhere".
        """
        with np.errstate(invalid="ignore"):
            return 0.5 * (self.mins + self.maxs)

    def extents(self) -> np.ndarray:
        """Per-axis widths, shape ``(n, d)``. Negative for degenerate boxes."""
        return self.maxs - self.mins

    def is_degenerate(self) -> np.ndarray:
        """Boolean mask of boxes with inverted extent on any axis (deleted)."""
        dead = np.zeros(len(self), dtype=bool)
        for lo, hi in zip(self.mins.T, self.maxs.T):
            dead |= hi < lo
        return dead

    def union_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The tight AABB of all non-degenerate boxes as ``(lo, hi)``.

        Returns zero-size bounds at the origin when every box is degenerate.
        """
        dead = self.is_degenerate()
        if dead.all():
            z = np.zeros(self.ndim, dtype=self.dtype)
            return z, z.copy()
        # Per-axis 1-D reductions: an (n, d) axis-0 reduction is ~20x slower.
        live = ~dead if dead.any() else slice(None)
        lo = np.array([col[live].min() for col in self.mins.T], dtype=self.dtype)
        hi = np.array([col[live].max() for col in self.maxs.T], dtype=self.dtype)
        return lo, hi

    def copy(self) -> "Boxes":
        return Boxes(self.mins.copy(), self.maxs.copy())

    def astype(self, dtype) -> "Boxes":
        """Cast coordinates; returns self if the dtype already matches."""
        if np.dtype(dtype) == self.dtype:
            return self
        return Boxes(self.mins.astype(dtype), self.maxs.astype(dtype))

    # -- mutation (used by the update path, §4.2) ---------------------------

    def overwrite(self, ids: np.ndarray, new: "Boxes") -> None:
        """In-place coordinate update of the boxes at ``ids``."""
        self.mins[ids] = new.mins.astype(self.dtype, copy=False)
        self.maxs[ids] = new.maxs.astype(self.dtype, copy=False)

    def degenerate(self, ids: np.ndarray) -> None:
        """Collapse the boxes at ``ids`` to an unhittable inverted extent.

        This is the paper's deletion mechanism (§4.2): the AABB extent is
        reduced so ray casting can never report it. We invert the extent
        (min > max) which is strictly unhittable under the slab test, a
        conservative strengthening of the paper's zero-extent construction.
        """
        self.mins[ids] = np.inf
        self.maxs[ids] = -np.inf

    def concatenate(self, other: "Boxes") -> "Boxes":
        """A new box set with ``other`` appended (batch insertion)."""
        if other.ndim != self.ndim:
            raise ValueError("dimensionality mismatch")
        return Boxes(
            np.concatenate([self.mins, other.mins.astype(self.dtype, copy=False)]),
            np.concatenate([self.maxs, other.maxs.astype(self.dtype, copy=False)]),
        )
