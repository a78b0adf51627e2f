"""Tests for the span tracer, analytics and exporters (repro.obs)."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.obs import (
    CAT_CHUNK,
    CAT_KERNEL,
    CAT_REGION,
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Trace,
    Tracer,
    analyze,
    chrome_trace,
    current_tracer,
    flame_summary,
    imbalance_factor,
    load_chrome,
    save_chrome,
    worker_busy,
    write_jsonl,
)
from repro.parallel import OpenMPBackend


def _chunk(t0, t1, slot, name="chunk", **attrs):
    """Hand-built chunk span with the worker identity already resolved."""
    return SpanEvent(
        name=name, cat=CAT_CHUNK, t0=t0, t1=t1, slot=slot, depth=0,
        path=(name,), attrs=attrs, worker=f"worker-{slot}", tid=slot,
    )


class TestTracerSpans:
    def test_span_records_bounds_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", cat=CAT_KERNEL, fmt="coo", mode=1):
            pass
        trace = tracer.freeze()
        (span,) = trace.spans()
        assert span.name == "work"
        assert span.cat == CAT_KERNEL
        assert span.t1 >= span.t0
        assert span.attrs == {"fmt": "coo", "mode": 1}

    def test_nesting_depth_and_path(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        trace = tracer.freeze()
        by_name = {s.name: s for s in trace.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["outer"].path == ("outer",)
        assert by_name["inner"].depth == 1
        assert by_name["inner"].path == ("outer", "inner")
        # The inner span closes first and starts inside the outer one.
        assert by_name["outer"].t0 <= by_name["inner"].t0
        assert by_name["inner"].t1 <= by_name["outer"].t1

    def test_annotate_enriches_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.annotate(entries=7)
        by_name = {s.name: s for s in tracer.freeze().spans()}
        assert by_name["inner"].attrs == {"entries": 7}
        assert "entries" not in by_name["outer"].attrs
        tracer.annotate(ignored=True)  # outside any span: silent no-op

    def test_exception_marks_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.freeze().spans()
        assert span.attrs["error"] == "ValueError"

    def test_instants(self):
        tracer = Tracer()
        tracer.instant("launch", cat="gpu", nblocks=3)
        trace = tracer.freeze()
        (ev,) = [e for e in trace.events if e.instant]
        assert ev.name == "launch" and ev.t0 == ev.t1
        assert ev.attrs == {"nblocks": 3}

    def test_clear_drops_everything(self):
        tracer = Tracer()
        with tracer.span("work"):
            tracer.instant("tick")
        tracer.clear()
        assert tracer.freeze().events == ()


class TestInstall:
    def test_install_uninstall_restores_previous(self):
        assert current_tracer() is NULL_TRACER
        outer, inner = Tracer(), Tracer()
        with outer:
            assert current_tracer() is outer
            with inner:
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER

    def test_null_tracer_is_noop(self):
        null = NullTracer()
        assert not null.enabled
        # Disabled spans hand out one shared null context — no per-call
        # allocation on the disabled path.
        assert null.span("a") is null.span("b", cat="chunk", x=1)
        with null.span("a"):
            pass
        null.instant("i")
        null.annotate(x=1)

    def test_default_global_is_disabled(self):
        assert isinstance(current_tracer(), NullTracer)
        assert not current_tracer().enabled


class TestConcurrentBuffers:
    def test_openmp_chunks_are_slot_tagged_and_complete(self):
        nthreads = 4
        backend = OpenMPBackend(nthreads=nthreads)
        tracer = Tracer()
        seen = []
        lock = threading.Lock()

        def body(lo, hi):
            with lock:
                seen.append((lo, hi))

        try:
            with tracer:
                backend.parallel_for(1000, body, schedule="dynamic")
        finally:
            backend.shutdown()
        trace = tracer.freeze()
        chunks = trace.spans(CAT_CHUNK)
        # One span per executed chunk, each tagged with a valid slot.
        assert len(chunks) == len(seen)
        assert all(0 <= c.slot < nthreads for c in chunks)
        ranges = sorted((c.attrs["lo"], c.attrs["hi"]) for c in chunks)
        assert ranges == sorted(seen)
        # Chunks reassemble the full iteration space exactly once.
        covered = 0
        for lo, hi in ranges:
            assert lo == covered
            covered = hi
        assert covered == 1000
        regions = trace.spans(CAT_REGION)
        assert [r.name for r in regions] == ["parallel_for"]
        assert regions[0].attrs["schedule"] == "dynamic"

    def test_chunk_body_counters_sum_exactly(self, registry):
        backend = OpenMPBackend(nthreads=2)

        def body(lo, hi):
            registry.inc("iters", hi - lo)

        try:
            backend.parallel_for(100, body, schedule="static")
        finally:
            backend.shutdown()
        assert registry.counter_value("iters") == 100.0
        assert registry.as_dict()["counters"]["iters"] == [
            {"labels": {}, "value": 100.0}
        ]

    def test_two_backends_from_two_threads_lose_no_increment(self, registry):
        # Both backends lease worker slots 0 and 1, so their chunk bodies
        # run concurrently under the same slot numbers; a tiny switch
        # interval forces preemption inside every unlocked update.
        n = 20_000
        backends = [OpenMPBackend(nthreads=2) for _ in range(2)]

        def body(lo, hi):
            for _ in range(lo, hi):
                registry.inc("iters")

        def drive(be):
            be.parallel_for(n, body, schedule="dynamic", chunk=500)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive, args=(be,)) for be in backends]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
            for be in backends:
                be.shutdown()
        assert registry.counter_value("iters") == 2 * n


class TestAnalytics:
    def _hand_built(self):
        # worker-0: two 1s chunks (busy 2.0); worker-1: one 1s chunk.
        events = (
            SpanEvent(
                name="parallel_for", cat=CAT_REGION, t0=0.0, t1=2.0,
                slot=-1, depth=0, path=("parallel_for",), attrs={},
                worker="thread-0", tid=1000,
            ),
            _chunk(0.0, 1.0, 0),
            _chunk(1.0, 2.0, 0),
            _chunk(0.0, 1.0, 1),
        )
        return Trace(events=events)

    def test_imbalance_on_hand_built_trace(self):
        stats = analyze(self._hand_built())
        assert stats.nworkers == 2
        assert stats.nchunks == 3
        assert stats.wall_s == pytest.approx(2.0)
        assert stats.total_busy_s == pytest.approx(3.0)
        # max busy 2.0 over mean busy 1.5.
        assert stats.imbalance == pytest.approx(2.0 / 1.5)
        assert stats.chunk_imbalance == pytest.approx(1.0)
        assert stats.busy_frac == pytest.approx(3.0 / (2 * 2.0))
        # Region covers the whole wall: no serial tail.
        assert stats.critical_path_s == pytest.approx(2.0)

    def test_worker_busy_and_factor_helpers(self):
        busy = worker_busy(self._hand_built())
        assert busy == {"worker-0": pytest.approx(2.0),
                        "worker-1": pytest.approx(1.0)}
        assert imbalance_factor({}) == 1.0
        assert imbalance_factor({"a": 1.0, "b": 1.0}) == pytest.approx(1.0)

    def test_render_mentions_imbalance(self):
        text = analyze(self._hand_built()).render()
        assert "load imbalance" in text
        assert "worker-0" in text and "worker-1" in text

    def test_as_dict_is_json_serializable(self):
        d = analyze(self._hand_built()).as_dict()
        json.dumps(d)
        assert d["imbalance"] == pytest.approx(2.0 / 1.5)
        assert set(d["busy_per_worker"]) == {"worker-0", "worker-1"}


class TestExport:
    def _traced_run(self):
        backend = OpenMPBackend(nthreads=2)
        tracer = Tracer(meta={"note": "test"})
        try:
            with tracer:
                with tracer.span("kernel", cat=CAT_KERNEL, fmt="coo"):
                    backend.parallel_for(64, lambda lo, hi: None)
        finally:
            backend.shutdown()
        return tracer.freeze()

    def test_chrome_roundtrip_schema(self, tmp_path):
        trace = self._traced_run()
        path = str(tmp_path / "trace.json")
        save_chrome(trace, path)
        doc = load_chrome(path)
        assert doc["otherData"]["exporter"] == "repro.obs"
        assert doc["otherData"]["note"] == "test"
        events = doc["traceEvents"]
        chunks = [e for e in events if e.get("name") == "chunk" and e["ph"] == "X"]
        assert chunks, "expected one X event per executed chunk"
        for c in chunks:
            assert c["args"]["slot"] >= 0
            assert c["tid"] == c["args"]["slot"]
            assert c["ts"] >= 0 and c["dur"] >= 0
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        names = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in names} >= {"worker-0"}

    def test_load_chrome_rejects_non_trace(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="trace-event"):
            load_chrome(str(path))

    def test_jsonl_events_plus_trailer(self, tmp_path):
        trace = self._traced_run()
        path = str(tmp_path / "events.jsonl")
        write_jsonl(trace, path)
        lines = [json.loads(l) for l in open(path)]
        assert len(lines) == len(trace.events) + 1
        assert lines[-1] == {"meta": {"note": "test"}}
        assert all("t0_s" in l for l in lines[:-1])

    def test_flame_summary_folds_paths(self):
        trace = self._traced_run()
        text = flame_summary(trace)
        assert "chunk" in text and "kernel" in text
        assert flame_summary(Trace(())) == "(no spans recorded)"


class TestKernelIntegration:
    def test_traced_mttkrp_emits_spans_and_counters(self, registry):
        from repro.generate import powerlaw_tensor
        from repro.kernels import coo_mttkrp

        x = powerlaw_tensor((80, 60, 10), nnz=2000, seed=5).sort()
        rng = np.random.default_rng(0)
        mats = [rng.random((s, 4)).astype(np.float32) for s in x.shape]
        backend = OpenMPBackend(nthreads=2)
        tracer = Tracer()
        try:
            with tracer:
                out = coo_mttkrp(x, mats, 0, backend, method="atomic")
        finally:
            backend.shutdown()
        ref = coo_mttkrp(x, mats, 0)
        np.testing.assert_allclose(out, ref, rtol=1e-4)
        trace = tracer.freeze()
        kernels = [s for s in trace.spans(CAT_KERNEL) if s.name == "mttkrp"]
        assert len(kernels) == 1
        assert kernels[0].attrs["nnz"] == x.nnz
        assert trace.spans(CAT_CHUNK)
        # Two calls (traced + reference), counted alike in the registry.
        assert registry.counter_value("kernel.nnz_processed") == 2.0 * x.nnz
        assert registry.counter_value("kernel.flops") == pytest.approx(
            2 * 3.0 * x.nnz * 4
        )

    @pytest.mark.parametrize("kernel", ["tew", "ts"])
    def test_tew_ts_count_one_flop_per_nonzero(self, registry, kernel):
        from repro.kernels import tew, ts
        from repro.sptensor import COOTensor, HiCOOTensor

        x = COOTensor.random((30, 20, 10), nnz=600, rng=4).sort()
        h = HiCOOTensor.from_coo(x, 4)
        for t in (x, h):
            before = registry.counter_totals(prefix="kernel.")
            if kernel == "tew":
                tew(t, t, "add", assume_same_pattern=True)
            else:
                ts(t, 2.0, "mul")
            after = registry.counter_totals(prefix="kernel.")
            for name in ("kernel.nnz_processed", "kernel.flops"):
                assert after[name] - before.get(name, 0.0) == t.nnz

    def test_untraced_mttkrp_still_counts(self, registry):
        from repro.generate import powerlaw_tensor
        from repro.kernels import coo_mttkrp

        x = powerlaw_tensor((80, 60, 10), nnz=2000, seed=5).sort()
        rng = np.random.default_rng(0)
        mats = [rng.random((s, 4)).astype(np.float32) for s in x.shape]
        assert current_tracer() is NULL_TRACER
        coo_mttkrp(x, mats, 0)
        assert registry.counter_value("kernel.nnz_processed") == float(x.nnz)
        assert registry.counter_value("kernel.flops") == pytest.approx(
            3.0 * x.nnz * 4
        )

    def test_kernels_write_registry_from_caller_thread_only(self, registry, monkeypatch):
        # Kernels count their work before or after their parallel region,
        # so every registry write of every kernel x format comes from the
        # thread that issued the kernel, under OpenMP and churn alike.
        from repro.kernels import mttkrp, tew, ts, ttm, ttv
        from repro.obs.registry import MetricsRegistry
        from repro.parallel import ChaosBackend
        from repro.sptensor import COOTensor, HiCOOTensor

        writers = set()
        for name in ("inc", "observe", "set_gauge"):
            raw = getattr(MetricsRegistry, name)

            def spy(self, *a, _raw=raw, **k):
                if self is registry:
                    writers.add(threading.get_ident())
                return _raw(self, *a, **k)

            monkeypatch.setattr(MetricsRegistry, name, spy)

        x = COOTensor.random((30, 20, 10), nnz=600, rng=4).sort()
        h = HiCOOTensor.from_coo(x, 4)
        rng = np.random.default_rng(2)
        mats = [rng.random((s, 3)) for s in x.shape]
        backends = [
            OpenMPBackend(nthreads=4, default_chunk=32),
            ChaosBackend(OpenMPBackend(nthreads=4, default_chunk=32), churn=0.5),
        ]
        try:
            for be in backends:
                for t in (x, h):
                    for mode in range(3):
                        for method in ("atomic", "sort", "owner"):
                            mttkrp(t, mats, mode, be, method=method)
                        ttv(t, mats[mode][:, 0], mode, be)
                        ttm(t, mats[mode], mode, be)
                    tew(t, t, "add", be, assume_same_pattern=True)
                    ts(t, 2.0, "mul", be)
        finally:
            for be in backends:
                be.shutdown()
        assert registry.counter_value("kernel.nnz_processed") > 0
        assert registry.counter_totals("plan.")["plan.builds"] > 0
        assert writers == {threading.get_ident()}

    def test_disabled_tracer_records_nothing(self):
        from repro.generate import powerlaw_tensor
        from repro.kernels import coo_ttv

        x = powerlaw_tensor((50, 40, 8), nnz=500, seed=7).sort()
        v = np.ones(x.shape[1], dtype=np.float32)
        probe = Tracer()  # never installed: kernels see the null tracer
        coo_ttv(x, v, 1)
        assert probe.freeze().events == ()
        assert current_tracer() is NULL_TRACER

    def test_gpu_costmodel_emits_launch_instants(self, registry):
        from repro.generate import powerlaw_tensor
        from repro.gpu.device import DeviceSpec
        from repro.gpu.kernels import gpu_coo_mttkrp
        from repro.roofline import PLATFORMS

        gpu = next(p for p in PLATFORMS if p.is_gpu)
        dev = DeviceSpec.from_platform(gpu)
        x = powerlaw_tensor((60, 50, 8), nnz=1000, seed=3).sort()
        rng = np.random.default_rng(0)
        mats = [rng.random((s, 4)).astype(np.float32) for s in x.shape]
        tracer = Tracer()
        with tracer:
            gpu_coo_mttkrp(x, mats, 0, dev)
        trace = tracer.freeze()
        launches = [e for e in trace.events if e.name == "gpu_launch"]
        assert launches and all(e.instant for e in launches)
        assert registry.counter_value("gpu.launches") == len(launches)
        assert registry.counter_value("gpu.atomics_issued") > 0
