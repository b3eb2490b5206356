"""Unit tests for the Boxes container."""

import numpy as np
import pytest

from repro.geometry.boxes import Boxes, as_coord_array


class TestConstruction:
    def test_basic_shape(self):
        b = Boxes([[0.0, 0.0]], [[1.0, 2.0]])
        assert len(b) == 1
        assert b.ndim == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            Boxes(np.zeros((2, 2)), np.ones((3, 2)))

    def test_bad_dimensionality_rejected(self):
        with pytest.raises(ValueError, match="2-D and 3-D"):
            Boxes(np.zeros((2, 4)), np.ones((2, 4)))

    def test_from_interleaved(self):
        arr = np.array([[0.0, 1.0, 2.0, 3.0]])  # xmin ymin xmax ymax
        b = Boxes.from_interleaved(arr)
        assert np.array_equal(b.mins, [[0.0, 1.0]])
        assert np.array_equal(b.maxs, [[2.0, 3.0]])

    def test_from_interleaved_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even column count"):
            Boxes.from_interleaved(np.zeros((4, 5)))

    def test_from_interleaved_zero_width_rejected(self):
        with pytest.raises(ValueError, match="even column count"):
            Boxes.from_interleaved(np.zeros((4, 0)))

    def test_from_points_zero_extent(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = Boxes.from_points(pts)
        assert np.array_equal(b.mins, b.maxs)

    def test_empty(self):
        b = Boxes.empty(3)
        assert len(b) == 0
        assert b.ndim == 3

    def test_dtype_preserved(self):
        b = Boxes(np.zeros((1, 2), dtype=np.float32), np.ones((1, 2), dtype=np.float32))
        assert b.dtype == np.float32

    def test_dtype_coercion(self):
        b = Boxes(np.zeros((1, 2)), np.ones((1, 2)), dtype=np.float32)
        assert b.dtype == np.float32

    def test_as_coord_array_1d_promoted(self):
        assert as_coord_array([1.0, 2.0]).shape == (1, 2)

    def test_as_coord_array_rejects_3d(self):
        with pytest.raises(ValueError):
            as_coord_array(np.zeros((2, 2, 2)))


class TestDerived:
    def test_centers(self):
        b = Boxes([[0.0, 0.0]], [[2.0, 4.0]])
        assert np.array_equal(b.centers(), [[1.0, 2.0]])

    def test_extents(self):
        b = Boxes([[0.0, 1.0]], [[2.0, 4.0]])
        assert np.array_equal(b.extents(), [[2.0, 3.0]])

    def test_union_bounds(self):
        b = Boxes([[0.0, 5.0], [2.0, 1.0]], [[1.0, 6.0], [3.0, 2.0]])
        lo, hi = b.union_bounds()
        assert np.array_equal(lo, [0.0, 1.0])
        assert np.array_equal(hi, [3.0, 6.0])

    def test_union_bounds_skips_degenerate(self):
        b = Boxes([[0.0, 0.0], [10.0, 10.0]], [[1.0, 1.0], [11.0, 11.0]])
        b.degenerate(np.array([1]))
        lo, hi = b.union_bounds()
        assert np.array_equal(hi, [1.0, 1.0])

    def test_union_bounds_all_degenerate(self):
        b = Boxes([[0.0, 0.0]], [[1.0, 1.0]])
        b.degenerate(np.array([0]))
        lo, hi = b.union_bounds()
        assert np.array_equal(lo, hi)

    def test_getitem_array(self):
        b = Boxes(np.arange(10).reshape(5, 2), np.arange(10).reshape(5, 2) + 1.0)
        sub = b[np.array([0, 3])]
        assert len(sub) == 2
        assert np.array_equal(sub.mins[1], b.mins[3])

    def test_getitem_scalar(self):
        b = Boxes(np.arange(10).reshape(5, 2), np.arange(10).reshape(5, 2) + 1.0)
        sub = b[2]
        assert len(sub) == 1

    @pytest.mark.parametrize(
        "idx",
        [
            np.array([4, 0, 0, 2]),
            np.array([1, 3], dtype=np.int32),
            np.array([1, 3], dtype=np.uint32),
            np.array([1, 3], dtype=np.uint64),
            [3, -1, 0],
            np.array([-5, -2]),
            np.array([], dtype=np.int64),
            [],
            np.array([True, False, True, False, True]),
            [False, True, False, False, True],
            slice(1, 4),
            slice(None, None, -2),
            2,
            -1,
            np.int64(3),
        ],
        ids=repr,
    )
    def test_getitem_matches_numpy_indexing(self, idx):
        """Integer gathers take rows; every index kind keeps numpy's
        shape and selection, and array indices copy as fancy indexing does."""
        b = Boxes(np.arange(15.0).reshape(5, 3), np.arange(15.0).reshape(5, 3) + 1.0)
        sub = b[idx]
        assert sub.mins.shape == np.atleast_2d(b.mins[idx]).shape
        assert np.array_equal(sub.mins, np.atleast_2d(b.mins[idx]))
        assert np.array_equal(sub.maxs, np.atleast_2d(b.maxs[idx]))
        assert sub.dtype == b.dtype
        if len(sub) and isinstance(idx, (list, np.ndarray)):
            sub.mins[0] = -99.0
            assert (b.mins != -99.0).all()

    def test_getitem_out_of_range(self):
        b = Boxes(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(IndexError):
            b[np.array([0, 3])]
        with pytest.raises(IndexError):
            b[[-4]]

    def test_iter(self):
        b = Boxes([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]])
        items = list(b)
        assert len(items) == 2
        assert np.array_equal(items[1][0], [1.0, 1.0])


class TestMutation:
    def test_is_degenerate_any_axis(self):
        mins = np.zeros((4, 3))
        maxs = np.ones((4, 3))
        maxs[1, 0] = -1.0  # inverted on x only
        maxs[2, 2] = -1.0  # inverted on z only
        maxs[3] = 0.0  # zero extent is live
        b = Boxes(mins, maxs)
        assert list(b.is_degenerate()) == [False, True, True, False]
        assert b.is_degenerate().shape == (4,)
        assert Boxes.empty(3).is_degenerate().shape == (0,)

    def test_union_bounds_matches_row_reduction(self, rng):
        mins = rng.random((200, 3)).astype(np.float32)
        b = Boxes(mins, mins + 0.1)
        b.degenerate(np.arange(0, 200, 7))
        live = ~(b.maxs < b.mins).any(axis=1)
        lo, hi = b.union_bounds()
        assert lo.dtype == hi.dtype == np.float32
        assert np.array_equal(lo, b.mins[live].min(axis=0))
        assert np.array_equal(hi, b.maxs[live].max(axis=0))

    def test_degenerate_marks(self):
        b = Boxes(np.zeros((3, 2)), np.ones((3, 2)))
        b.degenerate(np.array([1]))
        assert list(b.is_degenerate()) == [False, True, False]

    def test_overwrite(self):
        b = Boxes(np.zeros((2, 2)), np.ones((2, 2)))
        b.overwrite(np.array([0]), Boxes([[5.0, 5.0]], [[6.0, 6.0]]))
        assert np.array_equal(b.mins[0], [5.0, 5.0])
        assert np.array_equal(b.mins[1], [0.0, 0.0])

    def test_overwrite_resurrects_degenerate(self):
        b = Boxes(np.zeros((1, 2)), np.ones((1, 2)))
        b.degenerate(np.array([0]))
        b.overwrite(np.array([0]), Boxes([[1.0, 1.0]], [[2.0, 2.0]]))
        assert not b.is_degenerate().any()

    def test_concatenate(self):
        a = Boxes(np.zeros((2, 2)), np.ones((2, 2)))
        c = a.concatenate(Boxes([[5.0, 5.0]], [[6.0, 6.0]]))
        assert len(c) == 3
        assert np.array_equal(c.mins[2], [5.0, 5.0])

    def test_concatenate_dim_mismatch(self):
        a = Boxes(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            a.concatenate(Boxes.empty(3))

    def test_copy_is_independent(self):
        a = Boxes(np.zeros((1, 2)), np.ones((1, 2)))
        c = a.copy()
        c.mins[0, 0] = 42.0
        assert a.mins[0, 0] == 0.0

    def test_astype_roundtrip(self):
        a = Boxes(np.zeros((1, 2)), np.ones((1, 2)))
        assert a.astype(np.float64) is a
        assert a.astype(np.float32).dtype == np.float32
