"""The planner's per-GAS LBVH: exact answers under churn, the lifetime
of each GAS's tree, and concurrent first reads on a shared GAS.

Every GAS carries its own LBVH (``GeometryAS.lbvh``), built on the
first LBVH-routed batch that needs it and dropped by any change to the
GAS's geometry. Index forks share GASes, so they share the trees.
"""

from __future__ import annotations

import copy
import sys
import threading

import numpy as np
import pytest

from repro.churn import ChurnIndex
from repro.core.index import Predicate, RTSIndex
from repro.core.result import QueryResult
from repro.perfmodel.build import BuildModel
from repro.plan import backends
from repro.plan.backends import execute_baseline
from repro.plan.planner import BUILD_AMORTIZATION, QueryPlanner

from tests.conftest import assert_pairs_equal, random_boxes, random_points

ALL = tuple(Predicate)


def _lbvh(ix, predicate, payload):
    """One LBVH-routed batch: canonical pairs and the result meta."""
    r, q, _, meta = execute_baseline(ix, "lbvh", predicate, payload)
    return QueryResult(r, q, {}).pairs(), meta


def _payloads(rng, d, predicates):
    out = {
        Predicate.CONTAINS_POINT: random_points(rng, 300, d),
        Predicate.RANGE_CONTAINS: random_boxes(rng, 200, d, max_extent=0.5),
        Predicate.RANGE_INTERSECTS: random_boxes(rng, 60, d, max_extent=8.0),
    }
    return {p: out[p] for p in predicates}


def _charge(ix) -> float:
    """The planner's amortized LBVH build charge for a small batch."""
    plan = QueryPlanner().plan(ix, Predicate.RANGE_INTERSECTS, 8)
    return plan.estimates["lbvh"].build_s


class TestExactUnderChurn:
    @pytest.mark.parametrize(
        "d,dtype,predicates",
        [
            (2, np.float32, ALL),
            (2, np.float64, ALL),
            (3, np.float32, (Predicate.RANGE_INTERSECTS,)),
        ],
    )
    def test_lbvh_pairs_match_rt_and_monolithic(self, d, dtype, predicates):
        """After every op of a seeded churn sequence, the LBVH route's
        pairs equal the RT path's and the compacted reference's."""
        rng = np.random.default_rng(21)
        ix = ChurnIndex(random_boxes(rng, 500, d), ndim=d, dtype=dtype, seed=4)
        payloads = _payloads(rng, d, predicates)

        def check(step):
            ref = ix.to_monolithic()
            for predicate, payload in payloads.items():
                got, _ = _lbvh(ix, predicate, payload)
                rt = ix.query(predicate, payload, planner="off").pairs()
                mono = ref.query(predicate, payload, planner="off").pairs()
                assert len(rt[0]) > 0, f"{step}: {predicate.value} answered nothing"
                assert_pairs_equal(got, rt, f"{step} {predicate.value} vs rt")
                assert_pairs_equal(got, mono, f"{step} {predicate.value} vs monolithic")

        check("seed")
        ix.delete(np.arange(0, 500, 9))
        check("main delete (tombstones)")
        moved = np.arange(4, 500, 13)
        ix.update(moved, random_boxes(rng, len(moved), d))
        check("main update (tombstone + delta)")
        new = ix.insert(random_boxes(rng, 80, d))
        check("insert")
        ix.delete(new[::5])
        check("delta delete (refit)")
        ix.update(moved[::2], random_boxes(rng, len(moved[::2]), d))
        check("delta update (refit)")
        ix = ix.fork()
        ix.delete(np.arange(1, 500, 17))
        ix.insert(random_boxes(rng, 40, d))
        check("fork, then delete and insert")
        ix.compact()
        check("compact")
        ix.update(new[1:9], random_boxes(rng, 8, d))
        check("update after compact")

    def test_plain_index_deletes_and_updates(self, rng):
        """A plain index degenerates and refits in place: the refit GAS
        builds a fresh LBVH, whose pairs equal the RT path's."""
        payloads = _payloads(rng, 2, ALL)
        ix = RTSIndex(random_boxes(rng, 400), seed=2)
        ix.insert(random_boxes(rng, 100))
        for predicate, payload in payloads.items():
            _lbvh(ix, predicate, payload)
        ix.delete(np.arange(0, 500, 7))
        ix.update(np.arange(3, 500, 11), random_boxes(rng, len(range(3, 500, 11))))
        for predicate, payload in payloads.items():
            got, _ = _lbvh(ix, predicate, payload)
            rt = ix.query(predicate, payload, planner="off").pairs()
            assert_pairs_equal(got, rt, predicate.value)


class TestLifetime:
    def _warm(self, rng, ix):
        payload = random_boxes(rng, 8, max_extent=3.0)
        _, meta = _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)
        return payload, meta

    def test_first_batch_builds_the_whole_index(self, rng):
        """A one-GAS index that was never mutated charges the same build
        as one LBVH over every rectangle."""
        ix = RTSIndex(random_boxes(rng, 600), seed=1)
        assert _charge(ix) == BuildModel.lbvh_build(600) / BUILD_AMORTIZATION
        _, meta = self._warm(rng, ix)
        assert meta["backend_built_now"] is True
        assert meta["backend_build_s"] == BuildModel.lbvh_build(600)
        assert _charge(ix) == 0.0

    def test_main_resident_delete_builds_nothing(self, rng):
        ix = ChurnIndex(random_boxes(rng, 600), seed=1)
        payload, _ = self._warm(rng, ix)
        main = ix._gases[0].lbvh
        ix.delete(np.arange(0, 600, 5))
        assert _charge(ix) == 0.0
        _, meta = _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)
        assert meta["backend_built_now"] is False
        assert meta["backend_build_s"] == 0.0
        assert ix._gases[0].lbvh is main

    @pytest.mark.parametrize("cls", [RTSIndex, ChurnIndex])
    def test_insert_charges_only_the_new_batch(self, rng, cls):
        ix = cls(random_boxes(rng, 600), seed=1)
        payload, _ = self._warm(rng, ix)
        ix.insert(random_boxes(rng, 37))
        assert _charge(ix) == BuildModel.lbvh_build(37) / BUILD_AMORTIZATION
        _, meta = _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)
        assert meta["backend_built_now"] is True
        assert meta["backend_build_s"] == BuildModel.lbvh_build(37)

    def test_compact_builds_the_main_lbvh_again(self, rng):
        ix = ChurnIndex(random_boxes(rng, 600), seed=1)
        payload, _ = self._warm(rng, ix)
        ix.delete(np.arange(0, 600, 4))
        ix.insert(random_boxes(rng, 20))
        _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)
        ix.compact()
        assert ix._gases[0].lbvh is None
        _, meta = _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)
        assert meta["backend_built_now"] is True
        assert meta["backend_build_s"] == BuildModel.lbvh_build(ix.n_rects)

    @pytest.mark.parametrize("cls", [RTSIndex, ChurnIndex])
    def test_fork_first_read_builds_nothing(self, rng, cls):
        ix = cls(random_boxes(rng, 600), seed=1)
        ix.insert(random_boxes(rng, 30))
        payload, _ = self._warm(rng, ix)
        twin = ix.fork()
        assert _charge(twin) == 0.0
        _, meta = _lbvh(twin, Predicate.RANGE_INTERSECTS, payload)
        assert meta["backend_built_now"] is False
        assert [g.lbvh for g in twin._gases] == [g.lbvh for g in ix._gases]

    def test_fork_write_copies_the_gas_without_its_lbvh(self, rng):
        """The copy-on-write copy starts without a tree; the twin that
        did not write keeps its own."""
        ix = RTSIndex(random_boxes(rng, 600), seed=1)
        payload, _ = self._warm(rng, ix)
        main = ix._gases[0].lbvh
        twin = ix.fork()
        twin.delete([3])
        assert twin._gases[0] is not ix._gases[0]
        assert twin._gases[0].lbvh is None
        assert ix._gases[0].lbvh is main
        _, meta = _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)
        assert meta["backend_built_now"] is False

    def test_deepcopy_does_not_copy_the_lbvh(self, rng):
        """``_materialize_gases``'s deepcopy never visits the tree."""
        ix = RTSIndex(random_boxes(rng, 600), seed=1)
        self._warm(rng, ix)
        gas = ix._gases[0]
        memo = {}
        clone = copy.deepcopy(gas, memo)
        assert id(gas.lbvh) not in memo
        assert clone.lbvh is None
        assert clone.bvh.boxes is clone.boxes

    @pytest.mark.parametrize("cls", [RTSIndex, ChurnIndex])
    def test_refit_drops_the_lbvh(self, rng, cls):
        """Rectangles moved by an in-place refit (a plain index's update,
        a churn index's delta-resident update) are found at their new
        place, which the old tree's node bounds do not cover."""
        ix = cls(random_boxes(rng, 600, domain=50.0), seed=1)
        ids = ix.insert(random_boxes(rng, 40, domain=50.0))
        payload = random_boxes(rng, 8, max_extent=3.0)
        payload = type(payload)(payload.mins + 200.0, payload.maxs + 200.0)
        assert _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)[0][0].size == 0
        ix.update(ids[:8], payload)
        got, meta = _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)
        assert meta["backend_build_s"] == BuildModel.lbvh_build(40)
        assert set(got[0].tolist()) == set(ids[:8].tolist())
        want = ix.query(Predicate.RANGE_INTERSECTS, payload, planner="off").pairs()
        assert_pairs_equal(got, want, "after a refit")

    @pytest.mark.parametrize("rebuild_first", [False, True])
    def test_update_then_rebuild_never_reuses_a_stale_lbvh(self, rng, rebuild_first):
        """A refit drops the tree and a rebuild keeps it dropped, even
        when the rebuild resets ``refit_count`` to a value it had when a
        tree was built."""
        ix = RTSIndex(random_boxes(rng, 600), seed=1)
        payload, _ = self._warm(rng, ix)
        gas = ix._gases[0]
        stale = gas.lbvh
        ids = np.arange(0, 600, 3)
        ix.update(ids, random_boxes(rng, len(ids)))
        if rebuild_first:
            _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)
            gas.rebuild()
            ix.update(ids[::2], random_boxes(rng, len(ids[::2])))
        else:
            gas.rebuild()
        assert gas.refit_count == int(rebuild_first)
        got, meta = _lbvh(ix, Predicate.RANGE_INTERSECTS, payload)
        assert meta["backend_built_now"] is True
        assert gas.lbvh is not stale
        want = ix.query(Predicate.RANGE_INTERSECTS, payload, planner="off").pairs()
        assert_pairs_equal(got, want, "after update + rebuild")


class TestConcurrentFirstReads:
    N_READERS = 4

    def test_readers_build_shared_gases_at_once(self, rng, monkeypatch):
        """Readers of twins sharing two GASes with no tree all build
        each tree at once (a barrier holds every build until all of them
        have found no tree): they return identical pairs, and each GAS
        ends up with one whole tree that later reads reuse."""
        ix = RTSIndex(random_boxes(rng, 2000), seed=1)
        ix.insert(random_boxes(rng, 300))
        twins = [ix] + [ix.fork() for _ in range(self.N_READERS - 1)]
        payload = random_boxes(rng, 64, max_extent=4.0)
        barrier = threading.Barrier(self.N_READERS, timeout=30)
        real_bvh = backends.BVH

        def all_building(*args, **kwargs):
            barrier.wait()
            return real_bvh(*args, **kwargs)

        monkeypatch.setattr(backends, "BVH", all_building)
        out = [None] * self.N_READERS

        def read(i):
            out[i] = _lbvh(twins[i], Predicate.RANGE_INTERSECTS, payload)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(self.N_READERS)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        monkeypatch.undo()
        first, _ = out[0]
        assert len(first[0]) > 0
        for pairs, meta in out:
            assert meta["backend_built_now"] is True
            assert_pairs_equal(pairs, first, "concurrent first reads")
        want = ix.query(Predicate.RANGE_INTERSECTS, payload, planner="off").pairs()
        assert_pairs_equal(first, want, "concurrent first reads vs rt")
        for b, gas in enumerate(ix._gases):
            assert all(twin._gases[b] is gas for twin in twins)
            assert gas.lbvh is not None
        again, meta = _lbvh(twins[-1], Predicate.RANGE_INTERSECTS, payload)
        assert meta["backend_built_now"] is False
        assert_pairs_equal(again, first, "after the concurrent builds")
