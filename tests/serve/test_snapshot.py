"""Epoch snapshots: fork CoW isolation and atomic publication."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import Predicate, RTSIndex
from repro.serve import EpochSnapshots

from tests.conftest import assert_pairs_equal, random_boxes, random_points


def make_index(rng, n=400, seed=8):
    return RTSIndex(random_boxes(rng, n), dtype=np.float64, seed=seed)


class TestFork:
    def test_fork_answers_match_parent(self, rng):
        idx = make_index(rng)
        fork = idx.fork()
        pts = random_points(rng, 80)
        qs = random_boxes(rng, 60)
        for predicate, payload in [
            (Predicate.CONTAINS_POINT, pts),
            (Predicate.RANGE_CONTAINS, qs),
            (Predicate.RANGE_INTERSECTS, qs),
        ]:
            a = idx.query(predicate, payload)
            b = fork.query(predicate, payload)
            assert_pairs_equal(b.pairs(), a.pairs(), predicate.value)
            assert b.phases == a.phases

    @pytest.mark.parametrize("op", ["insert", "delete", "update", "rebuild"])
    def test_fork_mutation_matches_direct(self, rng, op):
        """Mutating a fork must be counter-for-counter identical to
        mutating the original in place (CoW must not change refit
        lineage)."""
        seed_rng = np.random.default_rng(777)
        data = random_boxes(seed_rng, 400)
        new = random_boxes(seed_rng, 32)
        direct = RTSIndex(data, dtype=np.float64, seed=8)
        forked = RTSIndex(data, dtype=np.float64, seed=8).fork()
        for ix in (direct, forked):
            if op == "insert":
                ix.insert(new)
            elif op == "delete":
                ix.delete(np.arange(0, 200, 3))
            elif op == "update":
                ix.update(np.arange(32), new)
            else:
                ix.rebuild()
        assert direct.epoch == forked.epoch
        qs = random_boxes(seed_rng, 60)
        a = direct.query(Predicate.RANGE_INTERSECTS, qs)
        b = forked.query(Predicate.RANGE_INTERSECTS, qs)
        assert_pairs_equal(b.pairs(), a.pairs(), op)
        assert b.phases == a.phases
        for key in ("stats", "forward_stats", "backward_stats", "k"):
            assert a.meta.get(key) == b.meta.get(key), key

    def test_child_mutation_invisible_to_parent(self, rng):
        idx = make_index(rng)
        pts = random_points(rng, 80)
        before = idx.query_points(pts)
        fork = idx.fork()
        fork.delete(np.arange(len(fork) // 2))
        fork.insert(random_boxes(rng, 50))
        after = idx.query_points(pts)
        assert_pairs_equal(after.pairs(), before.pairs(), "parent stable")
        assert fork.epoch == idx.epoch + 2

    def test_parent_mutation_invisible_to_child(self, rng):
        idx = make_index(rng)
        fork = idx.fork()
        pts = random_points(rng, 80)
        before = fork.query_points(pts)
        idx.update(np.arange(40), random_boxes(rng, 40))
        after = fork.query_points(pts)
        assert_pairs_equal(after.pairs(), before.pairs(), "child stable")


class TestEpochSnapshots:
    def test_publish_on_success_only(self, rng):
        snaps = EpochSnapshots(make_index(rng))
        published = snaps.current
        epoch0 = snaps.epoch
        with pytest.raises(ValueError):
            snaps.apply(lambda ix: ix.update(np.array([0, 0]), random_boxes(rng, 2)))
        assert snaps.current is published  # failed op never published
        assert snaps.epoch == epoch0

    def test_apply_returns_op_result(self, rng):
        snaps = EpochSnapshots(make_index(rng))
        epoch0 = snaps.epoch
        ids = snaps.apply(lambda ix: ix.insert(random_boxes(rng, 12)))
        assert len(ids) == 12
        assert snaps.epoch == epoch0 + 1

    def test_reader_pins_old_epoch(self, rng):
        snaps = EpochSnapshots(make_index(rng))
        pinned = snaps.current
        pts = random_points(rng, 60)
        before = pinned.query_points(pts)
        snaps.apply(lambda ix: ix.delete(np.arange(100)))
        assert snaps.current is not pinned
        again = pinned.query_points(pts)
        assert_pairs_equal(again.pairs(), before.pairs(), "pinned epoch")

    def test_history_retention(self, rng):
        snaps = EpochSnapshots(make_index(rng), retain_all=True)
        epoch0 = snaps.epoch
        snaps.apply(lambda ix: ix.insert(random_boxes(rng, 8)))
        snaps.apply(lambda ix: ix.rebuild())
        assert snaps.at(epoch0).epoch == epoch0
        assert snaps.at(epoch0 + 2) is snaps.current
        plain = EpochSnapshots(make_index(rng))
        with pytest.raises(RuntimeError):
            plain.at(plain.epoch)

    def test_retained_epoch_answers_as_published(self, rng):
        """A retained snapshot is the index as published at its epoch:
        later mutations leave its answers unchanged."""
        snaps = EpochSnapshots(make_index(rng), retain_all=True)
        epoch0 = snaps.epoch
        pts = random_points(rng, 80)
        before = snaps.current.query_points(pts)
        snaps.apply(lambda ix: ix.delete(np.arange(200)))
        snaps.apply(lambda ix: ix.insert(random_boxes(rng, 30)))
        again = snaps.at(epoch0).query_points(pts)
        assert_pairs_equal(again.pairs(), before.pairs(), "retained epoch")
        with pytest.raises(KeyError):
            snaps.at(snaps.epoch + 1)  # never published

    def test_default_keeps_no_history(self, rng):
        """Without ``retain_all`` no superseded snapshot is referenced."""
        snaps = EpochSnapshots(make_index(rng))
        for _ in range(3):
            snaps.apply(lambda ix: ix.insert(random_boxes(rng, 4)))
        assert snaps._history == {}
        assert "retained=0" in repr(snaps)
