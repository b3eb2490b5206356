"""Dataset and workload generator tests."""

import numpy as np
import pytest

from repro.datasets import (
    contains_queries,
    intersects_queries,
    load_real_world,
    point_queries,
    spider,
)
from repro.datasets.realworld import DATASET_ORDER, REAL_WORLD
from repro.datasets.synthetic import DISTRIBUTIONS
from repro.geometry.predicates import (
    join_contains_box,
    join_contains_point,
    join_intersects_box,
)
from tests.conftest import random_boxes


class TestSpider:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_counts_and_validity(self, dist):
        b = spider(dist, 500, seed=1)
        assert len(b) == 500
        assert not b.is_degenerate().any()
        assert (b.mins >= -0.01).all() and (b.maxs <= 1.2).all()

    def test_deterministic(self):
        a = spider("gaussian", 100, seed=9)
        b = spider("gaussian", 100, seed=9)
        assert np.array_equal(a.mins, b.mins)

    def test_seed_changes_data(self):
        a = spider("uniform", 100, seed=1)
        b = spider("uniform", 100, seed=2)
        assert not np.array_equal(a.mins, b.mins)

    def test_gaussian_concentrated(self):
        b = spider("gaussian", 5000, sigma=0.1, seed=3)
        centers = b.centers()
        assert np.abs(centers.mean(axis=0) - 0.5).max() < 0.02
        assert ((np.abs(centers - 0.5) < 0.3).mean()) > 0.95

    def test_diagonal_near_diagonal(self):
        b = spider("diagonal", 2000, seed=4)
        c = b.centers()
        assert np.abs(c[:, 0] - c[:, 1]).mean() < 0.1

    def test_sierpinski_has_holes(self):
        b = spider("sierpinski", 5000, seed=5, max_size=0.001)
        c = b.centers()
        # The central inverted triangle (around (0.5, 0.29)) is empty.
        hole = (np.abs(c[:, 0] - 0.5) < 0.1) & (np.abs(c[:, 1] - 0.29) < 0.05)
        assert hole.sum() < 10

    def test_parcel_tiles_the_square(self):
        b = spider("parcel", 64, seed=6, dither=0.0)
        # With no dither, parcels tile the unit square exactly.
        areas = np.prod(b.extents(), axis=1)
        assert areas.sum() == pytest.approx(1.0)

    def test_3d_uniform(self):
        b = spider("uniform", 100, d=3, seed=7)
        assert b.ndim == 3

    def test_parcel_3d_rejected(self):
        with pytest.raises(ValueError):
            spider("parcel", 10, d=3)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            spider("nope", 10)


class TestRealWorld:
    def test_registry_matches_paper(self):
        assert list(DATASET_ORDER) == [
            "USCounty",
            "USCensus",
            "USWater",
            "EUParks",
            "OSMLakes",
            "OSMParks",
        ]
        assert REAL_WORLD["OSMParks"].n_full == 11_500_000
        assert REAL_WORLD["USCounty"].n_full == 12_200

    def test_scaled_counts_ordered(self):
        sizes = [len(load_real_world(n, scale=0.01)) for n in DATASET_ORDER]
        assert sizes == sorted(sizes)

    def test_deterministic(self):
        a = load_real_world("USWater", scale=0.01)
        b = load_real_world("USWater", scale=0.01)
        assert np.array_equal(a.mins, b.mins)

    def test_deterministic_across_processes(self):
        """Seeding must not go through the per-process salted ``hash()``."""
        import os
        import subprocess
        import sys

        code = (
            "import hashlib; from repro.datasets import load_real_world; "
            "b = load_real_world('USWater', scale=0.01); "
            "print(hashlib.sha1(b.mins.tobytes() + b.maxs.tobytes()).hexdigest())"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(digests) == 1

    def test_skewed(self):
        data = load_real_world("OSMParks", scale=0.01)
        c = data.centers()
        # Heavy spatial skew: the densest 10% of cells hold far more than
        # 10% of the rectangles.
        hist, _, _ = np.histogram2d(c[:, 0], c[:, 1], bins=20, range=[[0, 1], [0, 1]])
        top = np.sort(hist.ravel())[::-1]
        assert top[:40].sum() > 0.35 * len(data)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_real_world("Atlantis")

    def test_counties_larger_than_parks(self):
        county = load_real_world("USCounty", scale=0.05).extents().mean()
        parks = load_real_world("OSMParks", scale=0.001).extents().mean()
        assert county > parks


class TestQueryGenerators:
    def test_point_queries_always_hit(self, rng):
        data = random_boxes(rng, 400)
        pts = point_queries(data, 150, seed=1)
        r, q = join_contains_point(data, pts)
        assert len(set(q.tolist())) == 150

    def test_point_queries_skip_deleted(self, rng):
        data = random_boxes(rng, 100)
        data.degenerate(np.arange(50))
        pts = point_queries(data, 50, seed=1)
        assert np.isfinite(pts).all()

    def test_contains_queries_always_contained(self, rng):
        data = random_boxes(rng, 400)
        q = contains_queries(data, 100, seed=2)
        r, qi = join_contains_box(data, q)
        assert len(set(qi.tolist())) == 100

    def test_intersects_queries_hit_selectivity(self, rng):
        data = random_boxes(rng, 3000, max_extent=2.0)
        target = 0.02
        q = intersects_queries(data, 100, target, seed=3)
        pairs = len(join_intersects_box(data, q)[0])
        achieved = pairs / (100 * len(data))
        assert target / 3 < achieved < target * 3

    def test_intersects_invalid_selectivity(self, rng):
        data = random_boxes(rng, 100)
        with pytest.raises(ValueError):
            intersects_queries(data, 10, 0.0)

    def test_all_deleted_raises(self, rng):
        data = random_boxes(rng, 10)
        data.degenerate(np.arange(10))
        with pytest.raises(ValueError, match="no live"):
            point_queries(data, 5)


class TestPersistence:
    def test_boxes_roundtrip(self, rng, tmp_path):
        from repro.datasets import load_boxes, save_boxes

        data = random_boxes(rng, 200)
        path = tmp_path / "data.npz"
        save_boxes(path, data, seed=42, name="demo")
        back, meta = load_boxes(path)
        assert np.array_equal(back.mins, data.mins)
        assert np.array_equal(back.maxs, data.maxs)
        assert int(meta["seed"]) == 42
        assert str(meta["name"]) == "demo"

    def test_polygons_roundtrip(self, tmp_path):
        from repro.datasets import load_polygons, save_polygons
        from repro.pip import polygon_dataset

        polys = polygon_dataset("USWater", scale=0.002)
        path = tmp_path / "polys.npz"
        save_polygons(path, polys, scale=0.002)
        back, meta = load_polygons(path)
        assert np.array_equal(back.vertices, polys.vertices)
        assert np.array_equal(back.offsets, polys.offsets)
        assert float(meta["scale"]) == 0.002

    def test_kind_mismatch_rejected(self, rng, tmp_path):
        from repro.datasets import load_polygons, save_boxes

        path = tmp_path / "data.npz"
        save_boxes(path, random_boxes(rng, 5))
        with pytest.raises(ValueError, match="not a repro polygons"):
            load_polygons(path)

    def test_dtype_preserved(self, rng, tmp_path):
        from repro.datasets import load_boxes, save_boxes

        data = random_boxes(rng, 10, dtype=np.float32)
        path = tmp_path / "f32.npz"
        save_boxes(path, data)
        back, _ = load_boxes(path)
        assert back.dtype == np.float32


class Test3DGenerators:
    def test_point_queries_3d_hit(self, rng):
        data = random_boxes(rng, 200, d=3)
        pts = point_queries(data, 50, seed=4)
        assert pts.shape == (50, 3)
        r, q = join_contains_point(data, pts)
        assert len(set(q.tolist())) == 50

    def test_intersects_queries_3d_selectivity(self, rng):
        data = random_boxes(rng, 1500, d=3, max_extent=4.0)
        q = intersects_queries(data, 60, 0.02, seed=5)
        assert q.ndim == 3
        pairs = len(join_intersects_box(data, q)[0])
        achieved = pairs / (60 * len(data))
        assert 0.02 / 4 < achieved < 0.02 * 4

    def test_contains_queries_3d(self, rng):
        data = random_boxes(rng, 300, d=3)
        q = contains_queries(data, 40, seed=6)
        r, qi = join_contains_box(data, q)
        assert len(set(qi.tolist())) == 40
