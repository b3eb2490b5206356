"""Pipeline/shader-table tests (paper §2.4 programming model)."""

import numpy as np
import pytest

from repro.geometry.boxes import Boxes
from repro.geometry.ray import Rays
from repro.rtcore.gas import GeometryAS
from repro.rtcore.ias import InstanceAS
from repro.rtcore.pipeline import Pipeline, ShaderPrograms
from tests.conftest import random_boxes, random_points


@pytest.fixture
def gas(rng):
    return GeometryAS(random_boxes(rng, 200))


class TestIsShader:
    def test_default_accepts_aabb_hits(self, gas, rng):
        pipe = Pipeline(gas, ShaderPrograms())
        pts = random_points(rng, 100)
        res = pipe.launch(Rays.point_rays(pts))
        # Default IS = hardware behaviour: every true AABB hit committed.
        assert len(res) > 0
        assert (res.t_hit >= 0).all()

    def test_is_filter_mask(self, gas, rng):
        # Accept only even primitive ids.
        def is_shader(ctx):
            return ctx.aabb_hit & (ctx.prim_ids % 2 == 0)

        pipe = Pipeline(gas, ShaderPrograms(intersection=is_shader))
        res = pipe.launch(Rays.point_rays(random_points(rng, 200)))
        assert (res.prim_ids % 2 == 0).all()

    def test_is_shader_sees_payload(self, gas, rng):
        seen = {}

        def is_shader(ctx):
            seen["payload_rows"] = ctx.payload[ctx.ray_rows]
            return ctx.aabb_hit

        pts = random_points(rng, 50)
        payload = np.arange(50, dtype=np.int64).reshape(-1, 1) * 10
        pipe = Pipeline(gas, ShaderPrograms(intersection=is_shader))
        pipe.launch(Rays.point_rays(pts), payload=payload)
        if "payload_rows" in seen:
            assert (seen["payload_rows"] % 10 == 0).all()

    def test_bad_mask_shape_rejected(self, gas, rng):
        pipe = Pipeline(
            gas, ShaderPrograms(intersection=lambda ctx: np.array([True]))
        )
        with pytest.raises(ValueError, match="accept flag"):
            pipe.launch(Rays.point_rays(random_points(rng, 30)))

    def test_payload_row_mismatch_rejected(self, gas, rng):
        pipe = Pipeline(gas, ShaderPrograms())
        with pytest.raises(ValueError, match="one row per ray"):
            pipe.launch(Rays.point_rays(random_points(rng, 10)), payload=np.zeros((5, 1)))


class TestHitShaders:
    def test_anyhit_called_per_commit(self, gas, rng):
        count = {"n": 0}

        def any_hit(ctx):
            count["n"] += len(ctx)

        pipe = Pipeline(gas, ShaderPrograms(any_hit=any_hit))
        res = pipe.launch(Rays.point_rays(random_points(rng, 100)))
        assert count["n"] == len(res)

    def test_closest_hit_one_per_ray(self, rng):
        # Nested boxes: a crossing ray commits several; CH sees the nearest.
        boxes = Boxes([[0.0, -1.0], [2.0, -1.0], [4.0, -1.0]],
                      [[1.0, 1.0], [3.0, 1.0], [5.0, 1.0]])
        gas = GeometryAS(boxes)
        got = {}

        def closest_hit(ctx):
            got["prims"] = ctx.prim_ids.copy()

        pipe = Pipeline(gas, ShaderPrograms(closest_hit=closest_hit))
        rays = Rays(np.array([[-1.0, 0.0]]), np.array([[1.0, 0.0]]), 0.0, 100.0)
        pipe.launch(rays)
        assert got["prims"].tolist() == [0]  # nearest box along +x

    def test_miss_called_for_unhit_rays(self, gas, rng):
        missed = {}

        def miss(rows, payload):
            missed["rows"] = rows

        pipe = Pipeline(gas, ShaderPrograms(miss=miss))
        # Points far outside the data domain: every ray misses.
        res = pipe.launch(Rays.point_rays(random_points(rng, 10, domain=1.0) + 1e5))
        assert len(res) == 0
        assert len(missed["rows"]) == 10

    def test_miss_and_hits_partition_rays(self, gas, rng):
        missed = {}

        def miss(rows, payload):
            missed["rows"] = set(rows.tolist())

        pipe = Pipeline(gas, ShaderPrograms(miss=miss))
        res = pipe.launch(Rays.point_rays(random_points(rng, 200)))
        hit_rows = set(res.ray_rows.tolist())
        assert hit_rows.isdisjoint(missed.get("rows", set()))
        assert hit_rows | missed.get("rows", set()) == set(range(200))


class TestIASLaunch:
    def test_instance_ids_visible(self, rng):
        ias = InstanceAS()
        ias.add_instance(GeometryAS(random_boxes(rng, 50)), instance_id=0)
        ias.add_instance(GeometryAS(random_boxes(rng, 50)), instance_id=1)
        pipe = Pipeline(ias, ShaderPrograms())
        res = pipe.launch(Rays.point_rays(random_points(rng, 100)))
        assert set(res.instance_ids.tolist()) <= {0, 1}

    def test_one_gas_under_two_ids_and_a_duplicate_id_rejected(self, rng):
        """The IS context reads each candidate's box from the GAS its
        instance id names: one GAS may sit under several ids, but linking
        an id twice is rejected, so no id names two GASes."""
        boxes = random_boxes(rng, 50)
        shared = GeometryAS(boxes)
        ias = InstanceAS()
        ias.add_instance(shared, instance_id=0)
        ias.add_instance(shared, instance_id=4)
        pts = boxes.centers()
        res = Pipeline(ias, ShaderPrograms()).launch(Rays.point_rays(pts))
        single = Pipeline(shared, ShaderPrograms()).launch(Rays.point_rays(pts))
        assert len(res) == 2 * len(single) > 0
        with pytest.raises(ValueError, match="instance id 4"):
            ias.add_instance(GeometryAS(random_boxes(rng, 50)), instance_id=4)
        assert [inst.instance_id for inst in ias.instances] == [0, 4]
