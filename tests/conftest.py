"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.boxes import Boxes
from repro.geometry.ray import ray_aabb_hit


@pytest.fixture(autouse=True)
def _fail_on_tsan_races():
    """Under REPRO_TSAN=1, any candidate race the runtime lockset
    sanitizer records during a test fails that test — so the CI stress
    run under the sanitizer is an assertion, not a silent log. The
    seeded-race tests in tests/tsan reset the registry in their own
    (inner, hence earlier) teardown, so they stay exempt."""
    from repro import tsan

    if not tsan.tsan_enabled():
        yield
        return
    before = len(tsan.races())
    yield
    fresh = tsan.races()[before:]
    assert not fresh, "\n".join(r.message for r in fresh)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_boxes(
    rng: np.random.Generator,
    n: int,
    d: int = 2,
    domain: float = 100.0,
    max_extent: float = 5.0,
    dtype=np.float64,
) -> Boxes:
    """Random boxes with positive extents inside [0, domain]^d."""
    mins = rng.random((n, d)) * domain
    ext = rng.random((n, d)) * max_extent
    return Boxes(mins, mins + ext, dtype=dtype)


def random_points(
    rng: np.random.Generator, n: int, d: int = 2, domain: float = 105.0
) -> np.ndarray:
    return rng.random((n, d)) * domain


@pytest.fixture
def small_boxes(rng) -> Boxes:
    return random_boxes(rng, 300)


@pytest.fixture
def medium_boxes(rng) -> Boxes:
    return random_boxes(rng, 3000)


def assert_pairs_equal(got: tuple, expected: tuple, context: str = "") -> None:
    """Both are (rect_ids, query_ids) in canonical order."""
    assert np.array_equal(got[0], expected[0]) and np.array_equal(
        got[1], expected[1]
    ), (
        f"{context}: pair mismatch — got {len(got[0])} pairs, "
        f"expected {len(expected[0])}"
    )


def aabb_hit_pairs(cand, boxes: Boxes, rays) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, prims)`` of the traversal candidates ``cand`` whose ray
    meets the candidate primitive's own AABB: what the IS context's
    ``aabb_hit`` keeps (candidates are potential hits)."""
    r, p = cand.rows, cand.prims
    hit = ray_aabb_hit(
        rays.origins[r], rays.dirs[r], rays.tmins[r], rays.tmaxs[r],
        boxes.mins[p], boxes.maxs[p],
    )
    return r[hit], p[hit]


def per_instance_traverse(ias, origins, dirs, tmins, tmaxs, stats, tracer=None):
    """An IAS launch as one separate single-structure launch per
    non-empty instance, concatenated in instance order: the reference
    the IAS's one-frontier launch must reproduce bit for bit
    (signature of :meth:`~repro.rtcore.ias.InstanceAS.traverse`, so
    tests can patch it in)."""
    from repro.rtcore.kernel import Candidates

    parts = []
    for inst in ias.instances:
        if len(inst.gas):
            cand = inst.gas.traverse(origins, dirs, tmins, tmaxs, stats)
            cand.instance_ids = np.full(len(cand), inst.instance_id, dtype=np.int64)
            parts.append(cand)
    return Candidates.concat(parts)
