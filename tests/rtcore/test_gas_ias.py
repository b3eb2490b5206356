"""GAS/IAS tests: two-level traversal, update and degeneration semantics
(paper §2.3, §4)."""

import warnings

import numpy as np
import pytest

from repro.geometry.boxes import Boxes
from repro.geometry.predicates import join_contains_point
from repro.geometry.ray import Rays
from repro.obs import Tracer
from repro.rtcore import kernel
from repro.rtcore.bvh import BVH
from repro.rtcore.gas import GeometryAS
from repro.rtcore.ias import InstanceAS
from repro.rtcore.kernel import Candidates, PairMajorNodes
from repro.rtcore.sah import SAHBVH
from repro.rtcore.stats import TraversalStats
from tests.conftest import aabb_hit_pairs, random_boxes, random_points


def point_hits(traversable, pts, n_stats=None):
    rays = Rays.point_rays(pts)
    stats = TraversalStats(n_stats or len(pts))
    return traversable.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats), stats


class TestGAS:
    def test_update_primitives_refits(self, rng):
        boxes = random_boxes(rng, 50)
        gas = GeometryAS(boxes)
        new = Boxes([[200.0, 200.0]], [[201.0, 201.0]])
        gas.update_primitives(np.array([7]), new)
        assert gas.refit_count == 1
        out, _ = point_hits(gas, np.array([[200.5, 200.5]]))
        assert 7 in out.prims.tolist()

    def test_degenerate_primitives_unhittable(self, rng):
        boxes = random_boxes(rng, 50)
        center = boxes.centers()[3:4].copy()
        gas = GeometryAS(boxes)
        gas.degenerate_primitives(np.array([3]))
        out, _ = point_hits(gas, center)
        assert 3 not in out.prims.tolist()

    def test_rebuild_resets_refit_count(self, rng):
        gas = GeometryAS(random_boxes(rng, 20))
        gas.update_primitives(np.array([0]), Boxes([[0.0, 0.0]], [[1.0, 1.0]]))
        gas.rebuild()
        assert gas.refit_count == 0

    def test_fast_trace_leaf_clamp_warns(self, rng):
        boxes = random_boxes(rng, 50)
        with pytest.warns(UserWarning, match="clamps leaf_size to 2"):
            gas = GeometryAS(boxes, leaf_size=1, builder="fast_trace")
        assert gas.bvh.leaf_size == 2

    def test_fast_trace_leaf_2_no_warning(self, rng):
        boxes = random_boxes(rng, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GeometryAS(boxes, leaf_size=2, builder="fast_trace")
            GeometryAS(boxes, leaf_size=1, builder="fast_build")

    @pytest.mark.parametrize(
        "builder, nodes, is_calls",
        [("fast_build", 307, 30), ("fast_trace", 231, 4)],
    )
    def test_traced_launch_span(self, builder, nodes, is_calls):
        """A traced GAS launch is one ``bvh.traverse`` span naming the
        build preset, with the launch's counter deltas (frozen)."""
        rng = np.random.default_rng(7)
        lo = rng.random((64, 2)) * 100
        gas = GeometryAS(Boxes(lo, lo + rng.random((64, 2)) * 5), leaf_size=2, builder=builder)
        rays = Rays.point_rays(rng.random((25, 2)) * 100)
        tracer, stats = Tracer(), TraversalStats(25)
        gas.traverse(rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats, tracer=tracer)
        [span] = tracer.roots
        assert span.name == "bvh.traverse" and not span.children
        assert span.attrs == {"builder": builder, "n_rays": 25, "n_prims": 64}
        assert span.counters == {
            "nodes_visited": nodes,
            "is_invocations": is_calls,
            "results_emitted": 0,
        }
        assert int(stats.nodes_visited.sum()) == nodes
        assert int(stats.is_invocations.sum()) == is_calls


class TestIASIdentity:
    def test_two_instances_union_results(self, rng):
        a = random_boxes(rng, 100)
        b = random_boxes(rng, 80)
        ias = InstanceAS()
        ias.add_instance(GeometryAS(a), instance_id=0)
        ias.add_instance(GeometryAS(b), instance_id=1)
        pts = random_points(rng, 120)
        hits, _ = point_hits(ias, pts)
        got = set(
            zip(hits.instance_ids.tolist(), hits.prims.tolist(), hits.rows.tolist())
        )
        ra, pa = join_contains_point(a, pts)
        rb, pb = join_contains_point(b, pts)
        expected = {(0, int(r), int(p)) for r, p in zip(ra, pa)} | {
            (1, int(r), int(p)) for r, p in zip(rb, pb)
        }
        assert got == expected

    def test_prim_ids_local_per_instance(self, rng):
        """optixGetPrimitiveIndex renumbers from zero per BVH (§4.1)."""
        a = Boxes([[0.0, 0.0]], [[1.0, 1.0]])
        b = Boxes([[10.0, 10.0]], [[11.0, 11.0]])
        ias = InstanceAS()
        ias.add_instance(GeometryAS(a))
        ias.add_instance(GeometryAS(b))
        hits, _ = point_hits(ias, np.array([[10.5, 10.5]]))
        assert hits.prims.tolist() == [0]
        assert hits.instance_ids.tolist() == [1]

    def test_empty_gas_skipped(self, rng):
        """An IAS launch is its non-empty instances' GAS launches
        concatenated in instance order, each candidate tagged with its
        instance id; an empty GAS adds no candidate and no node visit."""
        m = 200
        origins = random_points(rng, m)
        dirs = rng.random((m, 2)) * 60.0 - 30.0
        dirs[::7, 1] = 0.0
        tmins, tmaxs = np.zeros(m), np.ones(m)
        for builder in ("fast_build", "fast_trace"):
            gases = [
                GeometryAS(b, leaf_size=2, builder=builder)
                for b in (
                    random_boxes(rng, 40),
                    Boxes.empty(2),
                    random_boxes(rng, 30, max_extent=20.0),
                    random_boxes(rng, 50),
                )
            ]
            stats = TraversalStats(m)
            hits = InstanceAS.from_gases(gases).traverse(origins, dirs, tmins, tmaxs, stats)

            ref_stats = TraversalStats(m)
            parts = [
                (i, gas.traverse(origins, dirs, tmins, tmaxs, ref_stats))
                for i, gas in enumerate(gases)
                if len(gas)
            ]
            assert all(len(c) for _, c in parts)
            assert np.array_equal(hits.rows, np.concatenate([c.rows for _, c in parts]))
            assert np.array_equal(hits.prims, np.concatenate([c.prims for _, c in parts]))
            # Leaves of two hold potential hits the ray misses.
            rays = Rays(origins, dirs, tmins, tmaxs)
            n_hit = sum(len(aabb_hit_pairs(c, gases[i].boxes, rays)[0]) for i, c in parts)
            assert 0 < n_hit < len(hits)
            assert np.array_equal(
                hits.instance_ids, np.concatenate([np.full(len(c), i) for i, c in parts])
            )
            assert np.array_equal(stats.nodes_visited, ref_stats.nodes_visited)
            assert np.array_equal(stats.is_invocations, ref_stats.is_invocations)

    def test_stats_accumulate_across_instances(self, rng):
        a = random_boxes(rng, 64)
        pts = random_points(rng, 10)
        ias = InstanceAS()
        ias.add_instance(GeometryAS(a))
        single, s1 = point_hits(ias, pts)
        ias.add_instance(GeometryAS(a.copy()))
        double, s2 = point_hits(ias, pts)
        assert s2.nodes_visited.sum() == 2 * s1.nodes_visited.sum()

    def test_one_gas_two_instances(self, rng):
        """One GAS linked twice: every hit is reported once per
        instance, tagged with that instance's id."""
        boxes = random_boxes(rng, 60)
        gas = GeometryAS(boxes)
        ias = InstanceAS()
        ias.add_instance(gas, instance_id=0)
        ias.add_instance(gas, instance_id=5)
        pts = boxes.centers()[::3]
        hits, _ = point_hits(ias, pts)
        single, _ = point_hits(gas, pts)
        n = len(single)
        assert n and len(hits) == 2 * n
        assert hits.instance_ids.tolist() == [0] * n + [5] * n
        for half in (slice(0, n), slice(n, 2 * n)):
            assert np.array_equal(hits.rows[half], single.rows)
            assert np.array_equal(hits.prims[half], single.prims)

    def test_all_empty_ias_returns_empty_candidates(self, rng):
        ias = InstanceAS.from_gases([GeometryAS(Boxes.empty(2)), GeometryAS(Boxes.empty(2))])
        hits, stats = point_hits(ias, random_points(rng, 6))
        assert isinstance(hits, Candidates) and len(hits) == 0
        for col in (hits.rows, hits.prims, hits.instance_ids):
            assert col.dtype == np.int64 and len(col) == 0
        assert stats.nodes_visited.sum() == 0

    @pytest.mark.parametrize("builder", ["fast_build", "fast_trace"])
    def test_traced_ias_span_tree(self, builder, rng):
        """An IAS launch is one frontier over every instance: one
        ``ias.traverse`` span with no per-instance ``bvh.traverse``
        children, carrying the launch's counter deltas."""
        gases = [
            GeometryAS(b, leaf_size=2, builder=builder)
            for b in (random_boxes(rng, 30), Boxes.empty(2), random_boxes(rng, 45))
        ]
        pts = random_points(rng, 20)
        rays = Rays.point_rays(pts)
        tracer, stats = Tracer(), TraversalStats(20)
        InstanceAS.from_gases(gases).traverse(
            rays.origins, rays.dirs, rays.tmins, rays.tmaxs, stats, tracer=tracer
        )
        [root] = tracer.roots
        assert root.name == "ias.traverse"
        assert root.attrs == {"n_rays": 20, "n_instances": 3}
        assert root.children == []
        assert root.counters == {
            "nodes_visited": int(stats.nodes_visited.sum()),
            "is_invocations": int(stats.is_invocations.sum()),
            "results_emitted": 0,
        }
        assert root.counters["nodes_visited"] > 0


class TestLaunchPath:
    """Both BVH layouts launch rays through one traced ``traverse``;
    candidates of every launch are :class:`Candidates`."""

    @pytest.mark.parametrize(
        "builder, bvh_cls, topology",
        [
            ("fast_build", BVH, kernel.HeapTopology),
            ("fast_trace", SAHBVH, kernel.ExplicitTopology),
        ],
    )
    def test_one_traverse_for_both_layouts(self, builder, bvh_cls, topology, rng):
        assert bvh_cls.traverse is PairMajorNodes.traverse
        assert bvh_cls.topology is topology and bvh_cls.builder == builder
        gas = GeometryAS(random_boxes(rng, 40), leaf_size=2, builder=builder)
        assert type(gas.bvh) is bvh_cls
        hits, _ = point_hits(gas, random_points(rng, 30))
        assert isinstance(hits, Candidates) and len(hits)
        assert hits.instance_ids is None

    def test_concat_keeps_instance_column(self):
        def part(rows, iid):
            rows = np.asarray(rows, dtype=np.int64)
            return Candidates(rows, rows + 10, np.full(len(rows), iid, dtype=np.int64))

        out = Candidates.concat([part([0, 2], 3), part([1], 7)])
        assert out.rows.tolist() == [0, 2, 1]
        assert out.prims.tolist() == [10, 12, 11]
        assert out.instance_ids.tolist() == [3, 3, 7]
        # A launch into one structure carries no instance ids.
        plain = Candidates.concat([Candidates(np.array([4]), np.array([9]))])
        assert plain.instance_ids is None
        assert len(Candidates.concat([])) == 0
