"""Tests for the span tracer, analytics and exporters (repro.obs)."""

import json
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

    def test_per_slot_buffer_counters_stay_separate(self, registry):
        backend = OpenMPBackend(nthreads=2)

        def body(lo, hi):
            registry.inc("iters", hi - lo)

        try:
            backend.parallel_for(100, body, schedule="static")
        finally:
            backend.shutdown()
        assert registry.counter_value("iters") == 100.0
        # Backend chunks write slot-keyed cells, never the caller thread's.
        (cells,) = registry._metrics["iters"].series.values()
        assert cells and all(key[0] == "slot" for key in cells)


class TestWorkspaceCounters:
    def test_slot_sharing_direct_callers_count_exactly(self, registry):
        # Caller-thread execution binds slot 0 on every calling thread, so
        # concurrent direct callers share a registry cell key.  A per-acquire
        # registry write would lose increments here; the pool tallies under
        # its lock and publishes once per reduce/reset instead.
        import sys

        from repro.parallel import WorkspacePool
        from repro.parallel.slots import bound_slot

        n = 50_000

        def direct_caller():
            pool = WorkspacePool((4,), np.float64, max_arenas=1)
            with bound_slot(0):
                for _ in range(n):
                    pool.acquire()
            pool.reduce_into(np.zeros(4))
            pool.reset()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches mid-update
        try:
            threads = [threading.Thread(target=direct_caller) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        assert registry.counter_value("ws.acquire") == 2 * n
        assert registry.counter_value("ws.arena_alloc") == 2
        assert registry.counter_value("ws.arena_alloc_bytes") == 2 * 4 * 8
        assert registry.counter_value("ws.reduce") == 2
        assert registry.counter_value("ws.reset") == 2

    def test_tally_published_at_reset_without_reduce(self, registry):
        from repro.parallel import WorkspacePool

        pool = WorkspacePool((3,), np.float64, max_arenas=2)
        pool.acquire()
        pool.acquire()
        assert registry.counter_value("ws.acquire") == 0.0  # not yet published
        pool.reset()
        assert registry.counter_value("ws.acquire") == 2.0
        assert registry.counter_value("ws.arena_alloc") == 1.0
        pool.reset()  # nothing new to publish
        assert registry.counter_value("ws.acquire") == 2.0


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

    def test_concurrent_backends_count_workspace_exactly(self, registry):
        # Each calling thread drives its own backend, and every backend
        # leases worker slots from 0, so chunks of the two backends share
        # slot numbers.  ws.* counts must not be lost to that: they are
        # tallied under the pool lock and published from the caller thread.
        import sys

        from repro.generate import powerlaw_tensor
        from repro.kernels import coo_mttkrp

        x = powerlaw_tensor((40, 30, 8), nnz=2000, seed=3).sort()
        rng = np.random.default_rng(1)
        mats = [rng.random((s, 2)) for s in x.shape]

        def calls(n):
            backend = OpenMPBackend(nthreads=2, default_chunk=16)
            try:
                for _ in range(n):
                    coo_mttkrp(x, mats, 0, backend, method="atomic",
                               schedule="dynamic", tier="numpy")
            finally:
                backend.shutdown()

        calls(1)
        per_call = registry.counter_value("ws.acquire")
        assert per_call == 2000 / 16  # one acquire per dynamic chunk
        registry.clear()

        ncalls, nthreads = 20, 2
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches mid-update
        try:
            threads = [
                threading.Thread(target=calls, args=(ncalls,))
                for _ in range(nthreads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        total = ncalls * nthreads
        assert registry.counter_value("ws.acquire") == total * per_call
        assert registry.counter_value("ws.reduce") == total
        assert registry.counter_value("kernel.nnz_processed") == total * x.nnz

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


class TestRunnerTrace:
    def test_runner_attaches_obs_analytics(self, registry):
        from repro.bench.runner import RunnerConfig, SuiteRunner
        from repro.generate import powerlaw_tensor
        from repro.roofline import PLATFORMS
        from repro.types import Format, Kernel

        cpu = next(p for p in PLATFORMS if not p.is_gpu)
        cfg = RunnerConfig(
            trace=True, repeats=1, warmup=0,
            kernels=(Kernel.TTV,), formats=(Format.COO,),
        )
        x = powerlaw_tensor((60, 50, 8), nnz=1000, seed=3)
        (rec,) = SuiteRunner(cpu, cfg).run_tensor("t", x)
        obs = rec.extra["obs"]
        assert obs["imbalance"] >= 1.0
        assert 0.0 <= obs["busy_frac"] <= 1.0
        assert "counters" not in obs
        assert registry.counter_value("kernel.nnz_processed") > 0
        assert current_tracer() is NULL_TRACER
