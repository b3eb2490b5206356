"""Vectorized geometric kernel.

Everything in this package operates on NumPy struct-of-arrays data: a set
of *n* axis-aligned boxes in *d* dimensions is ``(mins, maxs)`` with shape
``(n, d)`` each, a set of *m* rays is ``(origins, dirs, tmins, tmaxs)``.
All predicates come in two flavours:

- *pairwise* — evaluate predicate on aligned index arrays (the hot path
  used by shader callbacks), and
- *join* — brute-force all-pairs evaluation used as the correctness oracle
  in tests and as the sampling trial run of the Ray Multicast k predictor.
"""

from repro.geometry.boxes import Boxes
from repro.geometry.dtypes import promote64
from repro.geometry.ray import Rays, ray_aabb_hit
from repro.geometry.predicates import (
    pairwise_box_contains_box,
    pairwise_box_contains_point,
    pairwise_box_intersects_box,
    join_contains_point,
    join_contains_box,
    join_intersects_box,
)
from repro.geometry.segment import (
    diagonal,
    anti_diagonal,
    pairwise_segment_intersects_box,
)
from repro.geometry.morton import morton_encode, morton_order, quantize_unit
from repro.geometry.polygon import PolygonSoup

__all__ = [
    "Boxes",
    "promote64",
    "Rays",
    "ray_aabb_hit",
    "pairwise_box_contains_box",
    "pairwise_box_contains_point",
    "pairwise_box_intersects_box",
    "join_contains_point",
    "join_contains_box",
    "join_intersects_box",
    "diagonal",
    "anti_diagonal",
    "pairwise_segment_intersects_box",
    "morton_encode",
    "morton_order",
    "quantize_unit",
    "PolygonSoup",
]
