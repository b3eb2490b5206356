"""Reads over many delta batches: one IAS launch over every instance.

A :class:`~repro.churn.ChurnIndex` with six or more delta batches
(inserts, updates that land as delta, delta deletes) answers through
one frontier over the main GAS and every delta GAS. Its pairs must
equal the compacted twin's, and its per-ray counters must equal a
separate launch per instance (:func:`tests.conftest.per_instance_traverse`),
serial and sharded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn import ChurnIndex
from repro.core.index import Predicate
from repro.parallel import executor
from repro.rtcore.ias import InstanceAS
from tests.conftest import assert_pairs_equal, per_instance_traverse, random_boxes, random_points


def build(parallel):
    """A churn index over 1,200 rects with seven delta batches."""
    rng = np.random.default_rng(2024)
    kw = {"parallel": True, "n_workers": 2} if parallel else {}
    ix = ChurnIndex(random_boxes(rng, 1200), dtype=np.float32, seed=11, **kw)
    for _ in range(4):
        ix.insert(random_boxes(rng, 64))
    ix.update(rng.choice(1200, size=50, replace=False), random_boxes(rng, 50))
    ix.update(rng.choice(1200, size=30, replace=False), random_boxes(rng, 30))
    ix.delete(np.arange(1200, 1240))  # delta-resident: degenerate + refit
    ix.insert(random_boxes(rng, 40))
    ix.delete(rng.choice(1200, size=60, replace=False))  # main tombstones
    return ix


def workload():
    rng = np.random.default_rng(7)
    boxes = random_boxes(rng, 300, max_extent=8.0)
    return [
        (Predicate.CONTAINS_POINT, random_points(rng, 400)),
        (Predicate.RANGE_CONTAINS, random_boxes(rng, 300, max_extent=1.0)),
        (Predicate.RANGE_INTERSECTS, boxes),
    ]


def launch_stats(result):
    meta = result.meta
    if "stats_obj" in meta:
        return [meta["stats_obj"]]
    return [meta["forward_stats_obj"], meta["backward_stats_obj"]]


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_many_delta_batches(parallel, monkeypatch):
    monkeypatch.setattr(executor, "MIN_SHARD_SIZE", 64)
    fused = build(parallel)
    assert fused.n_delta_batches >= 6
    mono = fused.to_monolithic()
    got = [fused.query(pred, q) for pred, q in workload()]
    for (pred, q), res in zip(workload(), got):
        assert len(res) > 0, pred
        assert_pairs_equal(res.pairs(), mono.query(pred, q).pairs(), pred.name)
        if parallel:
            assert res.meta["n_shards"] > 1

    monkeypatch.setattr(InstanceAS, "traverse", per_instance_traverse)
    ref = build(parallel)
    for (pred, q), res in zip(workload(), got):
        expect = ref.query(pred, q)
        assert_pairs_equal(res.pairs(), expect.pairs(), pred.name)
        assert res.phases == expect.phases, pred.name
        for a, b in zip(launch_stats(res), launch_stats(expect)):
            for field in ("nodes_visited", "is_invocations", "results_emitted"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
