"""Morton (Z-order) codes, vectorized bit interleaving.

Used by the LBVH baseline (Karras-style construction sorts primitives by
the Morton code of their AABB centroid) and by the GLIN learned index
(curve keys over geometry). 2-D codes interleave two 16-bit axes into 32
bits; 3-D codes interleave three 10-bit axes into 30 bits — the exact
layouts used by GPU builders, so every code fits a ``uint32`` lane.

Codes are built one axis column at a time in reused buffers (float64
normalisation, then a ``uint32`` lane spread in place).
"""

from __future__ import annotations

import itertools

import numpy as np

#: Per-dimension (bits per axis, bit-spread steps ``(shift, mask)``).
_SPREAD = {
    2: (16, ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555))),
    3: (10, ((16, 0x030000FF), (8, 0x0300F00F), (4, 0x030C30C3), (2, 0x09249249))),
}


def quantize_unit(coords: np.ndarray, bits: int) -> np.ndarray:
    """Quantize coordinates in [0, 1] to unsigned integers of ``bits`` bits.

    Values are clipped into [0, 1] (in float64) first; the top lattice
    cell is closed so 1.0 maps to ``2**bits - 1``.
    """
    unit = np.array(coords, dtype=np.float64)
    cells = np.empty(unit.shape, dtype=np.uint64)
    _quantize_into(cells, unit, bits)
    return cells


def _quantize_into(cells: np.ndarray, unit: np.ndarray, bits: int) -> None:
    """:func:`quantize_unit` into ``cells``, overwriting float64 ``unit``."""
    # fmax also sends NaN coordinates (centers of degenerate/deleted
    # boxes) to cell 0; such primitives are unhittable anyway, the code
    # only fixes their sort position.
    np.fmax(unit, 0.0, out=unit)
    np.fmin(unit, 1.0, out=unit)
    unit *= (1 << bits) - 1
    np.copyto(cells, unit, casting="unsafe")


def _encode_into(codes: np.ndarray, columns, lo, hi) -> None:
    """OR the Morton code of every row into the zeroed ``uint64`` ``codes``.

    ``columns`` yields the d coordinate columns one at a time.
    """
    lo = np.asarray(lo, dtype=np.float64)
    span = np.asarray(hi, dtype=np.float64) - lo
    span = np.where(span <= 0.0, 1.0, span)
    if lo.shape[0] not in _SPREAD:
        raise ValueError(f"Morton codes support d in (2, 3), got {lo.shape[0]}")
    bits, steps = _SPREAD[lo.shape[0]]
    n = codes.shape[0]
    unit = np.empty(n, dtype=np.float64)
    lane = np.empty(n, dtype=np.uint32)
    # The float64 buffer is dead once quantized; its bytes are the shift scratch.
    shifted = unit.view(np.uint32)[:n]
    for axis, col in enumerate(columns):
        np.copyto(unit, col)  # the explicit float32 -> float64 crossing
        unit -= lo[axis]
        unit /= span[axis]
        _quantize_into(lane, unit, bits)
        for shift, mask in steps:
            np.left_shift(lane, np.uint32(shift), out=shifted)
            lane |= shifted
            lane &= np.uint32(mask)
        lane <<= np.uint32(axis)
        codes |= lane


def morton_encode(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Morton codes for ``(n, d)`` points normalised into bounds [lo, hi].

    Degenerate bounds on an axis (hi == lo) collapse that axis to zero.
    Returns ``uint64`` codes (32 significant bits in 2-D, 30 in 3-D).
    """
    pts = np.asarray(points)
    codes = np.zeros(pts.shape[0], dtype=np.uint64)
    _encode_into(codes, pts.T, lo, hi)
    return codes


def morton_order(points, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The stable Morton order of ``points`` — equal to
    ``argsort(morton_encode(points, lo, hi), kind="stable")`` as ``int64``.

    ``points`` is an ``(n, d)`` array, or any iterable of its d coordinate
    columns; columns are consumed one at a time, so a generator may refill
    a single buffer. Each row's code is packed with its row number into a
    unique ``code << 32 | row`` key, so one in-place sort of any kind is
    stable, and masking the code back out leaves the order in place.
    """
    columns = iter(points.T if isinstance(points, np.ndarray) else points)
    first = next(columns)
    if len(first) >= 1 << 32:
        raise ValueError(f"morton_order packs row ids in 32 bits; got n={len(first)}")
    keys = np.zeros(len(first), dtype=np.uint64)
    _encode_into(keys, itertools.chain([first], columns), lo, hi)
    keys <<= np.uint64(32)
    keys |= np.arange(len(keys), dtype=np.uint64)
    keys.sort()
    keys &= np.uint64(0xFFFFFFFF)
    return keys.view(np.int64)
