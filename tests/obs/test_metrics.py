"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.obs import Histogram, MetricsRegistry


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        # value <= 1 -> bucket 0; (1, 2] -> bucket 1; (2, 4] -> bucket 2 ...
        h.observe([0, 1, 2, 3, 4, 5, 8, 9, 1024])
        assert h.buckets[0] == 2  # 0, 1
        assert h.buckets[1] == 1  # 2
        assert h.buckets[2] == 2  # 3, 4
        assert h.buckets[3] == 2  # 5, 8
        assert h.buckets[4] == 1  # 9
        assert h.buckets[10] == 1  # 1024
        assert h.count == 9
        assert h.total == sum([0, 1, 2, 3, 4, 5, 8, 9, 1024])

    def test_inf_bucket_catches_tail(self):
        h = Histogram()
        h.observe([2**25])
        assert h.buckets[-1] == 1

    def test_min_max_mean(self):
        h = Histogram()
        h.observe([4, 8])
        h.observe(2)
        assert h.min == 2.0 and h.max == 8.0
        assert h.mean == pytest.approx(14 / 3)

    def test_empty_observe_is_noop(self):
        h = Histogram()
        h.observe(np.array([], dtype=np.int64))
        assert h.count == 0 and h.min is None and h.mean == 0.0

    def test_quantile_bucket_estimates(self):
        h = Histogram()
        h.observe([1, 2, 4, 8, 16, 32, 64, 128])
        # Quantiles are conservative upper bucket edges, clipped to the
        # observed range, and monotone in q.
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 128.0
        qs = [h.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert qs == sorted(qs)
        assert h.quantile(0.5) == 8.0  # rank 4 of 8 -> bucket edge 8

    def test_quantile_single_value(self):
        h = Histogram()
        h.observe([7, 7, 7])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 7.0

    def test_quantile_empty_and_validation(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        h.observe(3)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_quantile_inf_bucket_clips_to_max(self):
        h = Histogram()
        h.observe([2**25, 2**25])
        assert h.quantile(0.99) == float(2**25)

    def test_to_dict_shape(self):
        h = Histogram()
        h.observe([1, 2, 3])
        d = h.to_dict()
        assert d["count"] == 3 and d["sum"] == 6
        assert len(d["bucket_le"]) == len(d["bucket_counts"])
        assert d["bucket_le"][-1] == float("inf")
        assert sum(d["bucket_counts"]) == 3


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        m = MetricsRegistry()
        m.inc("rays")
        m.inc("rays", 9)
        m.set_gauge("last_sim_time", 0.5)
        m.set_gauge("last_sim_time", 0.25)
        assert m.counter("rays") == 10
        assert m.gauge("last_sim_time") == 0.25

    def test_observe_creates_histogram(self):
        m = MetricsRegistry()
        m.observe("nodes_per_ray", [1, 2, 4])
        assert m.as_dict()["histograms"]["nodes_per_ray"]["count"] == 3

    def test_clear(self):
        m = MetricsRegistry()
        m.inc("x")
        m.observe("h", [1])
        m.clear()
        assert m.as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_json_export_round_trips(self, tmp_path):
        m = MetricsRegistry()
        m.inc("rays", 3)
        m.set_gauge("g", 1.5)
        m.observe("h", [7])
        path = tmp_path / "metrics.json"
        text = m.to_json(path)
        assert json.loads(path.read_text()) == json.loads(text)
        doc = json.loads(text)
        assert doc["counters"]["rays"] == 3
        assert doc["histograms"]["h"]["count"] == 1

    def test_csv_export_rows(self, tmp_path):
        m = MetricsRegistry()
        m.inc("rays", 3)
        m.set_gauge("g", 1.5)
        m.observe("h", [7, 9])
        path = tmp_path / "metrics.csv"
        m.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "name", "field", "value"]
        assert ["counter", "rays", "value", "3"] in rows
        assert ["gauge", "g", "value", "1.5"] in rows
        assert ["histogram", "h", "count", "2"] in rows
        # One le_* row per bucket edge, inf included.
        le_rows = [r for r in rows if r[0] == "histogram" and r[2].startswith("le_")]
        assert len(le_rows) == 22
        assert any(r[2] == "le_inf" for r in le_rows)


class TestIndexIntegration:
    def test_index_populates_metrics(self):
        from repro.core.index import Predicate, RTSIndex
        from repro.geometry.boxes import Boxes

        rng = np.random.default_rng(0)
        lo = rng.random((400, 2)) * 50
        idx = RTSIndex(Boxes(lo, lo + 1.0), seed=1)
        idx.query(Predicate.CONTAINS_POINT, rng.random((200, 2)) * 52)
        m = idx.metrics
        assert m.counter("query.contains-point.calls") == 1
        assert m.counter("query.contains-point.rays") == 200
        assert m.counter("query.contains-point.nodes_visited") > 0
        assert m.as_dict()["histograms"]["query.contains-point.nodes_per_ray"]["count"] == 200
        assert "query.contains-point.last_sim_time" in m.as_dict()["gauges"]
