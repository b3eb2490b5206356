"""One IAS launch is one frontier over every instance.

:meth:`~repro.rtcore.ias.InstanceAS.traverse` descends every instance
GAS in lockstep through one run of the traversal kernel. It must
reproduce a separate launch per instance, concatenated in instance
order (:func:`tests.conftest.per_instance_traverse`), bit for bit:
candidate rows, prims, ``instance_ids`` and every per-ray counter.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.geometry.boxes import Boxes
from repro.geometry.ray import Rays
from repro.rtcore.gas import GeometryAS
from repro.rtcore.ias import InstanceAS
from repro.rtcore.stats import TraversalStats
from tests.conftest import per_instance_traverse

COUNTERS = ("nodes_visited", "is_invocations", "results_emitted")


def boxes_in(rng, n, d, lo, hi, extent, dtype):
    mins = lo + rng.random((n, d)) * (hi - lo)
    return Boxes(mins, mins + rng.random((n, d)) * extent, dtype=dtype)


def make_ias(rng, sizes, *, d=2, dtype=np.float32, builder="fast_build", leaf_size=1,
             delete=0.0):
    """An IAS with one instance per entry of ``sizes`` (0 = an empty
    GAS), instance ids out of order; ``delete`` degenerates that share
    of every GAS's primitives after the build (a refit)."""
    ias = InstanceAS()
    for i, n in enumerate(sizes):
        boxes = boxes_in(rng, n, d, 0.0, 100.0, 4.0, dtype) if n else Boxes.empty(d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # fast_trace leaf clamp
            gas = GeometryAS(boxes, leaf_size=leaf_size, builder=builder)
        n_del = int(n * delete)
        if n_del:
            gas.degenerate_primitives(rng.choice(n, size=n_del, replace=False))
        ias.add_instance(gas, instance_id=10 * len(sizes) - 7 * i)
    return ias


def make_rays(rng, kind, m, d, dtype):
    if kind == "point":
        return Rays.point_rays(rng.random((m, d)) * 104.0, dtype=dtype)
    p1 = rng.random((m, d)) * 100.0
    p2 = p1 + (rng.random((m, d)) - 0.5) * 20.0
    if kind == "mixed":
        # Some rays parallel to one axis, a few to all but one.
        p2[::3, 0] = p1[::3, 0]
        p2[1::7, 1:] = p1[1::7, 1:]
    return Rays.segment_rays(p1, p2, dtype=dtype)


def launch(traverse, ias, rays):
    stats = TraversalStats(len(rays))
    cand = traverse(ias, rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats)
    return cand, stats


def assert_same_launch(ias, rays):
    got, got_stats = launch(InstanceAS.traverse, ias, rays)
    ref, ref_stats = launch(per_instance_traverse, ias, rays)
    for col in ("rows", "prims", "instance_ids"):
        a, b = getattr(got, col), getattr(ref, col)
        assert a.dtype == b.dtype and np.array_equal(a, b), col
    for name in COUNTERS:
        assert np.array_equal(getattr(got_stats, name), getattr(ref_stats, name)), name
    return got, got_stats


# Instances of different depth: the 1,500-prim GAS is still at an inner
# level where the 40-prim ones reach their leaves. Empty GASes sit
# between non-empty ones, and one GAS holds a single primitive (its root
# is its leaf).
DEEP_AND_SHALLOW = [1500, 40, 40, 40]
WITH_HOLES = [40, 0, 1, 0, 300, 40, 0]


@pytest.mark.parametrize("builder,leaf_size", [
    ("fast_build", 1), ("fast_build", 2), ("fast_build", 4),
    ("fast_trace", 2), ("fast_trace", 4),
])
@pytest.mark.parametrize("sizes", [DEEP_AND_SHALLOW, WITH_HOLES], ids=["depths", "holes"])
@pytest.mark.parametrize("kind", ["point", "segment", "mixed"])
def test_matches_per_instance_launches(builder, leaf_size, sizes, kind, rng):
    ias = make_ias(rng, sizes, builder=builder, leaf_size=leaf_size, delete=0.1)
    got, stats = assert_same_launch(ias, make_rays(rng, kind, 300, 2, np.float32))
    assert len(got) and stats.nodes_visited.sum()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["point", "segment", "mixed"])
def test_every_dimension_and_dtype(d, dtype, kind, rng):
    ias = make_ias(rng, DEEP_AND_SHALLOW, d=d, dtype=dtype, delete=0.05)
    got, _ = assert_same_launch(ias, make_rays(rng, kind, 240, d, dtype))
    assert len(got)


@pytest.mark.parametrize("builder", ["fast_build", "fast_trace"])
def test_empty_launch_and_empty_instances(builder, rng):
    ias = make_ias(rng, [40, 0, 60], builder=builder, leaf_size=2)
    got, stats = assert_same_launch(ias, make_rays(rng, "segment", 0, 2, np.float32))
    assert len(got) == 0 and stats.n_rays == 0
    got, stats = assert_same_launch(
        make_ias(rng, [0, 0], builder=builder), make_rays(rng, "point", 20, 2, np.float32)
    )
    assert len(got) == 0 and stats.nodes_visited.sum() == 0


def test_one_instance_is_the_bare_gas_launch(rng):
    ias = make_ias(rng, [500], delete=0.1)
    rays = make_rays(rng, "mixed", 200, 2, np.float32)
    got, stats = assert_same_launch(ias, rays)
    bare = TraversalStats(len(rays))
    gas = ias.instances[0].gas
    ref = gas.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, bare)
    assert np.array_equal(got.rows, ref.rows) and np.array_equal(got.prims, ref.prims)
    assert (got.instance_ids == ias.instances[0].instance_id).all()
    assert np.array_equal(stats.nodes_visited, bare.nodes_visited)

