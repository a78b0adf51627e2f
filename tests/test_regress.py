"""Tests for the perf-regression sentinel (repro.bench.regress)."""

import json
import re

import pytest

from repro.bench.regress import (
    IMPROVED,
    INSUFFICIENT,
    NEUTRAL,
    REGRESSED,
    Measurement,
    RegressError,
    compare_measurements,
    compare_paths,
    load_measurements,
)


def _meas(tensor, kernel="ttv", fmt="coo", value=1.0, method=""):
    return Measurement(
        identity=(tensor, kernel, fmt, "Bluesky"),
        group=(kernel, fmt, method, "host"),
        value=value,
    )


def _pair_sets(values_a, values_b, **kw):
    a = [_meas(f"t{i}", value=v) for i, v in enumerate(values_a)]
    b = [_meas(f"t{i}", value=v) for i, v in enumerate(values_b)]
    return compare_measurements(a, b, **kw)


class TestClassification:
    def test_identical_measurements_are_neutral(self):
        report = _pair_sets([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        (g,) = report.groups
        assert g.classification == NEUTRAL
        assert g.ci.estimate == pytest.approx(1.0)
        assert report.exit_code == 0

    def test_consistent_2x_slowdown_regresses(self):
        report = _pair_sets(
            [1.0, 2.0, 3.0, 4.0], [2.0, 4.1, 5.9, 8.2]
        )
        (g,) = report.groups
        assert g.classification == REGRESSED
        assert g.ci.lo > 1.0  # CI excludes no-change
        assert g.ci.excludes(1.0)
        assert report.exit_code == 1

    def test_consistent_speedup_improves(self):
        report = _pair_sets([2.0, 4.0, 6.0], [1.0, 2.05, 2.9])
        (g,) = report.groups
        assert g.classification == IMPROVED
        assert report.exit_code == 0

    def test_single_pair_is_insufficient(self):
        report = _pair_sets([1.0], [10.0])
        (g,) = report.groups
        assert g.classification == INSUFFICIENT
        assert report.exit_code == 0  # never gates

    def test_nonpositive_times_are_dropped_not_compared(self):
        report = _pair_sets([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        (g,) = report.groups
        assert g.n_pairs == 2 and g.n_dropped == 1

    def test_groups_judged_independently(self):
        a = [_meas("t0"), _meas("t1"),
             _meas("t0", kernel="tew"), _meas("t1", kernel="tew")]
        b = [_meas("t0", value=2.0), _meas("t1", value=2.1),
             _meas("t0", kernel="tew"), _meas("t1", kernel="tew")]
        report = compare_measurements(a, b)
        verdicts = {g.group[0]: g.classification for g in report.groups}
        assert verdicts == {"ttv": REGRESSED, "tew": NEUTRAL}
        assert report.counts()[REGRESSED] == 1

    def test_no_overlap_raises(self):
        with pytest.raises(RegressError):
            compare_measurements([_meas("t0")], [_meas("other")])

    def test_unmatched_cases_counted(self):
        a = [_meas("t0"), _meas("t1"), _meas("only-a")]
        b = [_meas("t0"), _meas("t1"), _meas("only-b"), _meas("only-b2")]
        report = compare_measurements(a, b)
        assert report.unmatched_a == 1 and report.unmatched_b == 2

    def test_render_and_dict(self):
        report = _pair_sets([1.0, 2.0], [2.0, 4.1])
        text = report.render()
        assert "ttv/coo" in text and "regressed" in text
        d = report.as_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["exit_code"] == 1
        assert d["counts"][REGRESSED] == 1


class TestLoaders:
    def _write_store(self, tmp_path, name, host_scale=1.0):
        from repro.bench import RunnerConfig, RunStore, SweepCase
        from repro.bench.runner import enumerate_cases
        from repro.metrics.perf import PerfRecord

        store = RunStore(tmp_path / name)
        cfg = RunnerConfig(kernels=("ttv",), formats=("coo", "hicoo"))
        cases = enumerate_cases(
            {"t0": {"kind": "random", "shape": (4, 4, 4), "nnz": 8, "seed": 0},
             "t1": {"kind": "random", "shape": (5, 5, 5), "nnz": 9, "seed": 0}},
            cfg,
        )
        for i, case in enumerate(cases):
            rec = PerfRecord(
                tensor=case.tensor, kernel=case.kernel, fmt=case.fmt,
                platform=case.platform, flops=1e6,
                seconds=0.001 * (i + 1),
                gflops=1.0, bound_gflops=2.0, efficiency=0.5,
                host_seconds=0.01 * (i + 1) * host_scale,
            )
            store.append_record(case, rec, attempt=0, elapsed_s=0.1)
        return store.path

    def test_store_loader_prefers_host_seconds(self, tmp_path):
        path = self._write_store(tmp_path, "a.jsonl")
        ms = load_measurements(path)
        assert len(ms) == 4
        assert all(m.value in (0.01, 0.02, 0.03, 0.04) for m in ms)
        assert {m.group for m in ms} == {
            ("ttv", "coo", "", "host"), ("ttv", "hicoo", "", "host"),
        }

    def test_store_without_host_time_is_modeled(self, tmp_path):
        path = self._write_store(tmp_path, "a.jsonl", host_scale=0.0)
        ms = load_measurements(path)
        assert all(m.kind == "modeled" for m in ms)
        assert sorted(m.value for m in ms) == [0.001, 0.002, 0.003, 0.004]

    def test_measured_store_vs_modeled_store_raises(self, tmp_path):
        measured = self._write_store(tmp_path, "a.jsonl")
        modeled = self._write_store(tmp_path, "b.jsonl", host_scale=0.0)
        with pytest.raises(RegressError, match="measured and modeled"):
            compare_paths(measured, modeled)

    def test_self_compare_exits_zero(self, tmp_path):
        path = self._write_store(tmp_path, "a.jsonl")
        report = compare_paths(path, path)
        assert report.exit_code == 0
        assert all(g.classification == NEUTRAL for g in report.groups)

    def test_synthetic_2x_slowdown_detected(self, tmp_path):
        a = self._write_store(tmp_path, "a.jsonl")
        b = self._write_store(tmp_path, "b.jsonl", host_scale=2.0)
        report = compare_paths(a, b)
        assert report.exit_code == 1
        for g in report.groups:
            assert g.classification == REGRESSED
            assert g.ci.estimate == pytest.approx(2.0)
            assert g.ci.excludes(1.0)

    def test_bench_json_loader(self, tmp_path):
        data = {
            "meta": {"nthreads": 4},
            "results": [
                {"kernel": "mttkrp", "format": "coo", "backend": "openmp",
                 "method": "atomic", "median_s": 0.05, "min_s": 0.04,
                 "reps": 7, "imbalance": 1.1},
                {"kernel": "mttkrp", "format": "coo", "backend": "openmp",
                 "method": "owner", "median_s": 0.03, "min_s": 0.03, "reps": 7},
            ],
        }
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps(data))
        ms = load_measurements(str(path))
        assert len(ms) == 2
        assert {m.group for m in ms} == {
            ("mttkrp", "coo", "atomic", "host"),
            ("mttkrp", "coo", "owner", "host"),
        }
        # Identity excludes measurement fields, so a re-run with different
        # timings pairs with the original.
        report = compare_paths(str(path), str(path))
        assert report.exit_code == 0

    def test_committed_bench_file_self_compares_clean(self):
        report = compare_paths("BENCH_kernels.json", "BENCH_kernels.json")
        assert report.exit_code == 0

    def test_committed_bench_file_times_generation(self):
        # The harness's tensor-generation rows form one host group, one
        # case per tensor.
        ms = load_measurements("BENCH_kernels.json")
        gen = [m for m in ms if m.group == ("generate", "coo", "", "host")]
        assert sorted(dict(m.identity)["tensor"] for m in gen) == [
            "choa", "regM", "vast",
        ]
        assert all(m.value > 0 for m in gen)

    def test_missing_file_raises(self):
        with pytest.raises(RegressError):
            load_measurements("/nonexistent/path.jsonl")


class TestDragInjection:
    def test_perf_drag_env_slows_one_kernel(self, monkeypatch):
        from repro.bench import RunnerConfig, SuiteRunner
        from repro.generate import powerlaw_tensor
        from repro.roofline import get_platform

        cfg = RunnerConfig(
            measure_host=True, repeats=1, warmup=0,
            kernels=("ttv",), formats=("coo",), backend="sequential",
        )
        x = powerlaw_tensor((30, 20, 8), nnz=300, seed=2)
        runner = SuiteRunner(get_platform("Bluesky"), cfg)
        monkeypatch.delenv("REPRO_PERF_DRAG", raising=False)
        (fast,) = runner.run_tensor("t", x)
        monkeypatch.setenv("REPRO_PERF_DRAG", "ttv:0.05,mttkrp:0.01")
        (slow,) = runner.run_tensor("t", x)
        assert slow.host_seconds >= fast.host_seconds + 0.04
        # Modeled platform time is unaffected.
        assert slow.seconds == pytest.approx(fast.seconds)

    def test_drag_ignores_other_kernels(self, monkeypatch):
        from repro.bench.runner import _drag_seconds
        from repro.types import Kernel

        monkeypatch.setenv("REPRO_PERF_DRAG", "ttv:0.05,ttm:0")
        assert _drag_seconds(Kernel.TTV) == 0.05
        assert _drag_seconds(Kernel.TTM) == 0.0
        assert _drag_seconds(Kernel.TEW) == 0.0
        monkeypatch.delenv("REPRO_PERF_DRAG")
        assert _drag_seconds(Kernel.TTV) == 0.0

    @pytest.mark.parametrize(
        "entry", ["ttv:5ms", "ttm:oops", "spmv:0.05", "ttv", "ttv:-1", "ttv:nan"]
    )
    def test_drag_rejects_malformed_entries(self, monkeypatch, entry):
        from repro.bench.runner import _drag_seconds
        from repro.types import Kernel

        monkeypatch.setenv("REPRO_PERF_DRAG", f"mttkrp:0.01,{entry}")
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            _drag_seconds(Kernel.TEW)
