"""Tests for the metrics registry (repro.obs.registry)."""

import json
import threading

import pytest

from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.obs.registry import MetricsError


class TestCountersAndGauges:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("runs", kernel="ttv", fmt="coo")
        reg.inc("runs", 2, kernel="ttv", fmt="coo")
        reg.inc("runs", kernel="ttv", fmt="hicoo")
        assert reg.counter_value("runs", kernel="ttv", fmt="coo") == 3.0
        assert reg.counter_value("runs", kernel="ttv", fmt="hicoo") == 1.0
        assert reg.counter_value("runs", kernel="mttkrp") == 0.0
        assert reg.counter_value("absent") == 0.0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.inc("c", kernel="ttv", fmt="coo")
        reg.inc("c", fmt="coo", kernel="ttv")
        assert reg.counter_value("c", fmt="coo", kernel="ttv") == 2.0

    def test_gauge_last_write_wins_across_threads(self):
        reg = MetricsRegistry()
        reg.set_gauge("level", 5.0, pool="a")
        reg.set_gauge("level", 3.0, pool="a")
        assert reg.gauge_value("level", pool="a") == 3.0
        # A level set from several threads is one level, not a sum of
        # per-thread last values.
        for value in (7.0, 4.0):
            t = threading.Thread(
                target=reg.set_gauge, args=("level", value), kwargs={"pool": "a"}
            )
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
        assert reg.gauge_value("level", pool="a") == 4.0
        assert reg.as_dict()["gauges"]["level"] == [
            {"labels": {"pool": "a"}, "value": 4.0}
        ]

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(MetricsError):
            reg.set_gauge("x", 1.0)
        with pytest.raises(MetricsError):
            reg.observe("x", 1.0)

    def test_concurrent_increments_from_threads(self):
        reg = MetricsRegistry()

        def worker():
            for _ in range(500):
                reg.inc("hits", kernel="ttv")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits", kernel="ttv") == 2000.0


class TestHistograms:
    def test_observe_and_snapshot(self):
        reg = MetricsRegistry()
        for v in (0.0005, 0.003, 0.003, 10.0, 1e9):
            reg.observe("lat", v, kernel="ttv")
        snap = reg.histogram_snapshot("lat", kernel="ttv")
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(1e9 + 10.0065)
        # Cumulative bucket counts; the huge value only lands in +Inf.
        assert snap["buckets"]["0.0005"] == 1
        assert snap["buckets"]["0.005"] == 3
        assert snap["buckets"]["10"] == 4
        assert snap["buckets"]["+Inf"] == 5

    def test_custom_buckets_and_validation(self):
        reg = MetricsRegistry()
        reg.observe("d", 1.5, buckets=(1.0, 2.0))
        snap = reg.histogram_snapshot("d")
        assert snap["buckets"] == {"1": 0, "2": 1, "+Inf": 1}
        with pytest.raises(MetricsError):
            MetricsRegistry().observe("bad", 1.0, buckets=(2.0, 1.0))

    def test_missing_histogram_snapshot_is_empty(self):
        reg = MetricsRegistry()
        assert reg.histogram_snapshot("none") == {
            "count": 0, "sum": 0.0, "buckets": {},
        }


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.inc("exec.completed", 3, kernel="mttkrp", fmt="hicoo")
        reg.set_gauge("ws.bytes", 4096.0, pool="main")
        reg.observe("case_s", 0.02, buckets=(0.01, 0.1), kernel="mttkrp")
        return reg

    def test_prometheus_text_format(self):
        text = self._populated().render_prometheus()
        assert "# TYPE exec_completed counter" in text
        assert 'exec_completed{fmt="hicoo",kernel="mttkrp"} 3' in text
        assert "# TYPE ws_bytes gauge" in text
        assert 'ws_bytes{pool="main"} 4096' in text
        assert 'case_s_bucket{kernel="mttkrp",le="0.1"} 1' in text
        assert 'case_s_bucket{kernel="mttkrp",le="+Inf"} 1' in text
        assert 'case_s_count{kernel="mttkrp"} 1' in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.inc("c", path='we"ird\\path\n')
        text = reg.render_prometheus()
        assert r'path="we\"ird\\path\n"' in text

    def test_as_dict_round_trips_json(self):
        d = self._populated().as_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["counters"]["exec.completed"][0]["value"] == 3.0
        assert d["gauges"]["ws.bytes"][0]["labels"] == {"pool": "main"}
        assert d["histograms"]["case_s"][0]["count"] == 1

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_clear(self):
        reg = self._populated()
        reg.clear()
        assert reg.as_dict()["counters"] == {}


class TestGlobalRegistry:
    def test_get_set_roundtrip(self):
        mine = MetricsRegistry()
        prev = set_metrics(mine)
        try:
            assert get_metrics() is mine
        finally:
            set_metrics(prev)
        assert get_metrics() is prev


class TestExecutorFeed:
    def test_sweep_feeds_registry(self, tmp_path):
        from repro.bench import (
            ExecutorConfig,
            RunnerConfig,
            RunStore,
            SuiteExecutor,
            enumerate_cases,
        )

        specs = {"tiny": {"kind": "random", "shape": (30, 20, 10), "nnz": 300, "seed": 1}}
        cfg = RunnerConfig(
            measure_host=False,
            kernels=("ttv",), formats=("coo",),
        )
        cases = enumerate_cases(specs, cfg, platforms=("Bluesky",))
        mine = MetricsRegistry()
        prev = set_metrics(mine)
        try:
            SuiteExecutor(
                cases,
                RunStore(tmp_path / "s.jsonl"),
                ExecutorConfig(isolation="inline"),
            ).run()
        finally:
            set_metrics(prev)
        assert mine.counter_value(
            "exec.completed", kernel="ttv", fmt="coo", platform="Bluesky"
        ) == 1.0
        snap = mine.histogram_snapshot(
            "exec.case_seconds", kernel="ttv", fmt="coo", platform="Bluesky"
        )
        assert snap["count"] == 1 and snap["sum"] > 0.0
