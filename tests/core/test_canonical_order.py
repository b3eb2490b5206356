"""The packed-key canonical pair order against a two-key ``np.lexsort``
reference: same permutation, same pairs, int64 output, and a clear
``ValueError`` where the packed key would overflow int64."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.canonical import canonical_pair_order, canonical_pairs

I64_MIN = int(np.iinfo(np.int64).min)
I64_MAX = int(np.iinfo(np.int64).max)

ID_DTYPES = (np.int32, np.uint32, np.int64)


def _assert_matches_lexsort(rect_ids, query_ids):
    ref = np.lexsort((rect_ids, query_ids))
    assert np.array_equal(canonical_pair_order(rect_ids, query_ids), ref)
    r, q = canonical_pairs(rect_ids, query_ids)
    assert r.dtype == np.int64 and q.dtype == np.int64
    assert np.array_equal(r, np.asarray(rect_ids, dtype=np.int64)[ref])
    assert np.array_equal(q, np.asarray(query_ids, dtype=np.int64)[ref])


@st.composite
def small_id_pairs(draw):
    """Pairs over a handful of ids, so duplicates are common; negative
    ids only for the signed dtype."""
    dtype = draw(st.sampled_from(ID_DTYPES))
    lo = 0 if dtype == np.uint32 else draw(st.integers(-50, 50))
    n = draw(st.integers(0, 40))
    ids = st.lists(st.integers(lo, lo + 6), min_size=n, max_size=n)
    return (
        np.array(draw(ids), dtype=dtype),
        np.array(draw(ids), dtype=dtype),
    )


@st.composite
def edge_spans(draw, overflow: bool):
    """Pairs whose id spans make the packed key exactly fill int64
    (``q_span * m == I64_MAX`` rounded down) or overflow it by one rect.
    Both id ranges sit at a random place of the int64 line, including its
    ends, and both range endpoints are present."""
    q_span = draw(st.integers(1, 2**40))
    m = I64_MAX // q_span + (1 if overflow else 0)
    # Keep both ranges inside int64.
    q_lo = draw(st.integers(I64_MIN, I64_MAX - (q_span - 1)))
    r_lo = draw(st.integers(I64_MIN, I64_MAX - (m - 1)))
    n = draw(st.integers(0, 8))
    q_ids = st.integers(q_lo, q_lo + q_span - 1)
    r_ids = st.integers(r_lo, r_lo + m - 1)
    q_mid = draw(st.lists(q_ids, min_size=n, max_size=n))
    r_mid = draw(st.lists(r_ids, min_size=n, max_size=n))
    q = np.array([q_lo, q_lo + q_span - 1, *q_mid], dtype=np.int64)
    r = np.array([r_lo + m - 1, r_lo, *r_mid], dtype=np.int64)
    perm = np.array(draw(st.permutations(range(len(q)))), dtype=np.int64)
    return r[perm], q[perm]


class TestAgainstLexsort:
    @given(small_id_pairs())
    @settings(max_examples=200, deadline=None)
    def test_small_ids_with_duplicates(self, pairs):
        _assert_matches_lexsort(*pairs)

    @given(edge_spans(overflow=False))
    @settings(max_examples=200, deadline=None)
    def test_ids_at_the_edge_of_the_int64_span(self, pairs):
        _assert_matches_lexsort(*pairs)

    @given(edge_spans(overflow=True))
    @settings(max_examples=100, deadline=None)
    def test_overflowing_spans_raise(self, pairs):
        with pytest.raises(ValueError, match="overflows"):
            canonical_pair_order(*pairs)
        with pytest.raises(ValueError, match="overflows"):
            canonical_pairs(*pairs)

    @pytest.mark.parametrize("dtype", ID_DTYPES)
    def test_empty(self, dtype):
        e = np.empty(0, dtype=dtype)
        assert len(canonical_pair_order(e, e)) == 0
        r, q = canonical_pairs(e, e)
        assert r.dtype == q.dtype == np.int64
        assert len(r) == len(q) == 0

    def test_uint32_ids_above_int32_range(self):
        r = np.array([2**32 - 1, 0, 2**31, 7], dtype=np.uint32)
        q = np.array([2**31 + 5, 2**31, 2**31 + 5, 2**31], dtype=np.uint32)
        _assert_matches_lexsort(r, q)

    def test_full_int64_line_on_one_side(self):
        # A single query over rect ids that span the whole int64 line
        # leaves no room for a second key digit.
        r = np.array([I64_MIN, I64_MAX], dtype=np.int64)
        q = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="overflows"):
            canonical_pairs(r, q)
        with pytest.raises(ValueError, match="overflows"):
            canonical_pairs(q, r)

    def test_extreme_ids_with_narrow_spans(self):
        r = np.array([I64_MIN + 1, I64_MIN, I64_MIN + 1, I64_MIN])
        q = np.array([I64_MAX, I64_MAX, I64_MAX - 1, I64_MAX])
        _assert_matches_lexsort(r, q)

    def test_input_is_not_modified(self):
        r = np.array([3, 1, 2], dtype=np.int64)
        q = np.array([1, 1, 0], dtype=np.int64)
        rr, qq = canonical_pairs(r, q)
        assert r.tolist() == [3, 1, 2] and q.tolist() == [1, 1, 0]
        assert rr.tolist() == [2, 1, 3] and qq.tolist() == [0, 1, 1]
