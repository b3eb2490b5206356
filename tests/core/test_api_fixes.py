"""Regression tests for the builder-fidelity and worker-resolution fixes,
the read-only ``all_boxes`` view, and the paper-parity mutation API."""

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.geometry.boxes import Boxes
from repro.geometry.predicates import join_intersects_box
from repro.parallel import ChunkedExecutor
from repro.rtcore.bvh import BVH
from repro.rtcore.sah import SAHBVH
from tests.conftest import assert_pairs_equal, random_boxes, random_points

ALL_PREDICATES = [
    Predicate.CONTAINS_POINT,
    Predicate.RANGE_CONTAINS,
    Predicate.RANGE_INTERSECTS,
]


def queries_for(predicate: Predicate, rng, ndim: int = 2):
    if predicate is Predicate.CONTAINS_POINT:
        return random_points(rng, 300, d=ndim)
    return random_boxes(rng, 300, d=ndim)


class TestPaperUpdateArgOrder:
    """``Update(rectangles, ids)`` — the paper's order, rectangles first."""

    def test_update_alias_swaps_arguments(self, rng):
        data = random_boxes(rng, 50)
        a = RTSIndex(data, dtype=np.float64, seed=3)
        b = RTSIndex(data, dtype=np.float64, seed=3)
        ids = np.array([4, 17, 33])
        moved = random_boxes(rng, 3)
        a.Update(moved, ids)  # paper order: rectangles, ids
        b.update(ids, moved)  # pythonic order: ids, rectangles
        assert np.array_equal(a._mins, b._mins)
        assert np.array_equal(a._maxs, b._maxs)

    def test_update_alias_moves_rect(self, rng):
        idx = RTSIndex(random_boxes(rng, 40, domain=10.0), dtype=np.float64, seed=3)
        target = Boxes([[90.0, 90.0]], [[95.0, 95.0]])
        idx.Update(target, np.array([7]))
        res = idx.query_points(np.array([[92.0, 92.0]]))
        assert res.rect_ids.tolist() == [7]

    def test_delete_then_update_resurrects_under_all_predicates(self, rng):
        idx = RTSIndex(random_boxes(rng, 60, domain=10.0), dtype=np.float64, seed=3)
        idx.Delete(np.array([5]))
        probe = np.array([[50.5, 50.5]])
        assert len(idx.query_points(probe)) == 0
        idx.Update(Boxes([[50.0, 50.0]], [[51.0, 51.0]]), np.array([5]))
        assert idx.query_points(probe).rect_ids.tolist() == [5]
        tiny = Boxes([[50.2, 50.2]], [[50.4, 50.4]])
        assert 5 in idx.query_contains(tiny).rect_ids
        assert 5 in idx.query_intersects(tiny).rect_ids
        assert idx.n_rects == 60  # back to full strength


class TestRebuildPreservesIds:
    @pytest.mark.parametrize("predicate", ALL_PREDICATES)
    def test_rebuild_keeps_ids_and_hides_deleted(self, rng, predicate):
        data = random_boxes(rng, 400)
        idx = RTSIndex(data, dtype=np.float64, seed=3)
        idx.insert(random_boxes(rng, 100))
        deleted = np.arange(0, 500, 7)
        idx.delete(deleted)
        q = queries_for(predicate, rng)
        before = idx.query(predicate, q)
        idx.rebuild()
        assert idx.n_batches == 1  # compacted
        after = idx.query(predicate, q)
        assert_pairs_equal(after.pairs(), before.pairs(), predicate.value)
        # Global ids survived the compaction; deleted slots stay dark.
        assert not np.isin(after.rect_ids, deleted).any()

    def test_deleted_slot_unreachable_even_at_old_coords(self, rng):
        data = random_boxes(rng, 100, domain=10.0)
        idx = RTSIndex(data, dtype=np.float64, seed=3)
        victim_center = (data.mins[42] + data.maxs[42]) / 2
        idx.delete([42])
        idx.rebuild()
        assert 42 not in idx.query_points(victim_center[None, :]).rect_ids


class TestAllBoxesReadOnly:
    def test_views_reject_writes(self, rng):
        idx = RTSIndex(random_boxes(rng, 30), dtype=np.float64, seed=3)
        boxes = idx.all_boxes()
        with pytest.raises(ValueError):
            boxes.mins[0, 0] = -1.0
        with pytest.raises(ValueError):
            boxes.maxs[:] = 0.0

    def test_index_not_corrupted_by_attempt(self, rng):
        idx = RTSIndex(random_boxes(rng, 30), dtype=np.float64, seed=3)
        snapshot = idx._mins.copy()
        try:
            idx.all_boxes().mins[0, 0] = -1.0
        except ValueError:
            pass
        assert np.array_equal(idx._mins, snapshot)

    def test_views_track_live_values(self, rng):
        """Still views (no copy): an update is visible through them."""
        idx = RTSIndex(random_boxes(rng, 30), dtype=np.float64, seed=3)
        boxes = idx.all_boxes()
        idx.update([3], Boxes([[0.0, 0.0]], [[1.0, 1.0]]))
        assert np.array_equal(boxes.mins[3], [0.0, 0.0])


class TestIntersectsIasBuilderFidelity:
    """A fast_trace index must forward-cast through SAH BVHs in 3-D too."""

    @pytest.mark.parametrize("builder,bvh_cls", [
        ("fast_build", BVH),
        ("fast_trace", SAHBVH),
    ])
    def test_flat_shadow_gases_use_index_builder(self, rng, builder, bvh_cls):
        idx = RTSIndex(
            random_boxes(rng, 200, d=3),
            ndim=3,
            dtype=np.float64,
            seed=3,
            builder=builder,
            leaf_size=2,
        )
        flat = idx.intersects_ias()
        assert flat is not idx._ias
        for inst in flat.instances:
            assert inst.gas.builder == builder
            assert isinstance(inst.gas.bvh, bvh_cls)

    def test_3d_fast_trace_results_match_oracle(self, rng):
        data = random_boxes(rng, 300, d=3)
        idx = RTSIndex(
            data, ndim=3, dtype=np.float64, seed=3, builder="fast_trace", leaf_size=2
        )
        q = random_boxes(rng, 150, d=3)
        assert_pairs_equal(
            idx.query_intersects(q).pairs(),
            join_intersects_box(data, q),
            "3d fast_trace intersects",
        )

    def test_memory_usage_prices_shadow_for_both_builders(self, rng):
        for builder in ("fast_build", "fast_trace"):
            idx = RTSIndex(
                random_boxes(rng, 200, d=3),
                ndim=3,
                dtype=np.float64,
                seed=3,
                builder=builder,
                leaf_size=2,
            )
            assert idx.memory_usage()["flat_ias_shadow"] == 0
            idx.query_intersects(random_boxes(rng, 50, d=3))
            assert idx.memory_usage()["flat_ias_shadow"] > 0


class TestWorkerValidation:
    """``n_workers=0`` must be rejected, not silently mean 'all cores'."""

    @pytest.mark.parametrize("bad", [0, -1])
    def test_index_constructor_rejects(self, rng, bad):
        with pytest.raises(ValueError, match="n_workers"):
            RTSIndex(random_boxes(rng, 10), dtype=np.float64, n_workers=bad)

    @pytest.mark.parametrize("override", [{"parallel": True}, {"n_workers": 2}])
    def test_query_override_rejects(self, rng, override):
        """Execution mode is fixed when the index is built: queries take
        no per-call ``parallel``/``n_workers``."""
        idx = RTSIndex(random_boxes(rng, 10), dtype=np.float64, seed=3)
        pts = random_points(rng, 5)
        with pytest.raises(TypeError):
            idx.query(Predicate.CONTAINS_POINT, pts, **override)
        with pytest.raises(TypeError):
            idx.query_points(pts, **override)
        assert idx._executor is None

    @pytest.mark.parametrize("bad", [0, -1])
    def test_chunked_executor_rejects(self, bad):
        with pytest.raises(ValueError, match="n_workers"):
            ChunkedExecutor(bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bench_config_rejects(self, bad):
        from repro.bench.config import BenchConfig

        with pytest.raises(ValueError, match="n_workers"):
            BenchConfig(n_workers=bad)

    def test_valid_values_still_accepted(self, rng):
        idx = RTSIndex(random_boxes(rng, 10), dtype=np.float64, seed=3, n_workers=1)
        assert idx.n_workers == 1
        auto = RTSIndex(random_boxes(rng, 10), dtype=np.float64, seed=3, n_workers=None)
        assert auto.n_workers >= 1
