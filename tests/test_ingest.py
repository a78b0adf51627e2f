"""Tests for the live streaming-ingestion benchmark (:mod:`repro.ingest`)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.bench.runstore import RunStore
from repro.ingest import (
    IngestBench,
    IngestConfig,
    IngestError,
    WindowBlocker,
    reference_window_state,
    run_ingest_bench,
    verify_window_state,
)
from repro.parallel import ChaosBackend
from repro.sptensor import COOTensor, HiCOOTensor


def small_config(**kw):
    kw.setdefault("shape", (32, 32, 8))
    kw.setdefault("events", 6000)
    kw.setdefault("batch", 512)
    kw.setdefault("window", 3)
    kw.setdefault("workers", 3)
    kw.setdefault("queue_depth", 3)
    kw.setdefault("query_every", 4)
    kw.setdefault("rank", 4)
    kw.setdefault("seed", 13)
    kw.setdefault("block_size", 8)
    return IngestConfig(**kw)


def assert_bit_exact(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(
        got.values.view(np.uint8), want.values.view(np.uint8)
    )


class TestIngestConfig:
    def test_validation(self):
        with pytest.raises(IngestError):
            IngestConfig(events=0)
        with pytest.raises(IngestError):
            IngestConfig(workers=0)
        with pytest.raises(IngestError):
            IngestConfig(block_size=3)
        for bad in (
            {"query_every": -1},
            {"worker_lifetime": -2},
            {"rank": 0},
        ):
            with pytest.raises(IngestError):
                IngestConfig(**bad)

    def test_fingerprint_stable_and_fault_insensitive(self):
        a = small_config()
        b = small_config(fail_at_batch=5)
        assert a.fingerprint == b.fingerprint  # fault knob excluded
        c = small_config(seed=99)
        assert a.fingerprint != c.fingerprint

    def test_store_case_shape(self):
        case = small_config().store_case("ttv", "coo")
        d = case.to_dict()
        assert d["kernel"] == "ttv" and d["fmt"] == "coo"
        assert case.fingerprint.endswith(":ttv/coo")
        assert isinstance(case.case_seed, int)


class TestConcurrentIngest:
    def test_window_state_bit_exact_vs_serial_replay(self):
        cfg = small_config()
        result = IngestBench(cfg).run()
        assert result.batches == cfg.nbatches
        assert result.evictions == cfg.nbatches - cfg.window
        assert_bit_exact(result.state, reference_window_state(cfg))
        ok, detail = verify_window_state(result)
        assert ok, detail

    def test_single_worker_and_wide_window(self):
        # window >> nbatches: nothing evicts, state is the whole stream
        cfg = small_config(workers=1, window=100, query_every=0)
        result = IngestBench(cfg).run()
        assert result.evictions == 0
        assert_bit_exact(result.state, reference_window_state(cfg))

    def test_worker_churn_preserves_state(self):
        cfg = small_config(worker_lifetime=1)
        result = IngestBench(cfg).run()
        assert result.churned > 0
        assert_bit_exact(result.state, reference_window_state(cfg))

    def test_backpressure_bounded_and_counted(self):
        cfg = small_config(
            workers=1, queue_depth=2, query_every=0, events=3000
        )
        result = IngestBench(cfg, apply_delay_s=0.01).run()
        assert result.backpressure_stalls > 0
        assert result.queue_max_depth <= cfg.queue_depth
        assert_bit_exact(result.state, reference_window_state(cfg))

    def test_latency_percentiles_recorded(self):
        result = IngestBench(small_config(query_every=0)).run()
        lat = result.latency_s
        assert set(lat) == {"p50", "p95", "p99"}
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]
        assert result.events_per_s > 0

    def test_queries_race_ingestion(self):
        cfg = small_config(query_every=2)
        result = IngestBench(cfg).run()
        assert result.queries >= 4  # at least the final round
        assert set(result.query_latency_s) <= {
            ("ttv", "coo"), ("ttv", "hicoo"),
            ("mttkrp", "coo"), ("mttkrp", "hicoo"),
        }
        assert_bit_exact(result.state, reference_window_state(cfg))

    def test_chaos_query_backend_does_not_corrupt_window(self):
        cfg = small_config(query_every=2, worker_lifetime=2)
        backend = ChaosBackend(seed=5, churn=True, failure_rate=0.5)
        result = IngestBench(cfg, query_backend=backend).run()
        # chaos at 50% failure over many rounds essentially always bites
        assert result.query_failures > 0
        assert result.churned > 0
        assert_bit_exact(result.state, reference_window_state(cfg))

    def test_injected_failure_raises(self):
        cfg = small_config(query_every=0, fail_at_batch=3)
        with pytest.raises(IngestError, match="injected"):
            IngestBench(cfg).run()

    def test_perf_records_carry_summary_and_roofline(self):
        cfg = small_config()
        result = IngestBench(cfg).run()
        marker = [r for r in result.records if r.kernel == "ingest"]
        assert len(marker) == 1
        summary = marker[0].extra["ingest"]
        assert summary["events"] == cfg.events
        assert summary["events_per_s"] > 0
        assert set(summary["latency_s"]) == {"p50", "p95", "p99"}
        kernels = [r for r in result.records if r.kernel != "ingest"]
        assert kernels
        for rec in kernels:
            assert rec.tensor == cfg.tensor_name
            assert rec.extra["roofline"]["bound_gflops"] > 0
            assert set(rec.extra["ingest"]["query_latency_s"]) == {
                "p50", "p95", "p99"
            }
            # exact JSON round trip (run-store requirement)
            assert (
                rec.from_dict(json.loads(json.dumps(rec.to_dict()))) == rec
            )

    def test_observability(self):
        from repro.obs import Tracer, get_metrics

        tracer = Tracer()
        with tracer:
            IngestBench(small_config()).run()
        trace = tracer.freeze()
        names = {s.name for s in trace.spans()}
        assert "ingest.run" in names
        assert "ingest.batch" in names
        assert "ingest.query" in names
        text = get_metrics().render_prometheus()
        assert "ingest_batches" in text
        assert "ingest_events" in text

    @pytest.mark.parametrize("query_every", [0, 8])
    def test_window_nnz_gauge_is_the_window_not_a_worker_sum(
        self, registry, query_every
    ):
        # The registry must report the window's one level, not a sum over
        # threads, and a run without queries must still set it.
        cfg = IngestConfig(workers=4, events=60_000, query_every=query_every)
        result = IngestBench(cfg).run()
        assert registry.gauge_value("ingest.window_nnz") == result.window_nnz


class TestWindowBlocker:
    def _batches(self, shape, n, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            m = int(rng.integers(4, 40))
            coords = rng.integers(0, shape, size=(m, len(shape)))
            values = rng.random(m, dtype=np.float64)
            out.append(COOTensor(shape, coords, values).coalesce())
        return out

    def test_snapshot_matches_from_coo(self):
        shape = (32, 24, 8)
        blocker = WindowBlocker(shape, block_size=8)
        window = []
        for bid, batch in enumerate(self._batches(shape, 6, seed=3)):
            blocker.admit(bid, blocker.decompose(batch))
            window.append(batch)
            if len(window) > 3:
                blocker.evict(bid - 3)
                window.pop(0)
            coords = np.concatenate([b.indices for b in window], axis=0)
            values = np.concatenate([b.values for b in window])
            state = COOTensor(shape, coords, values).coalesce()
            got = blocker.snapshot()
            want = HiCOOTensor.from_coo(state, 8)
            assert got.to_coo().allclose(want.to_coo(), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(got.bptr, want.bptr)
            np.testing.assert_array_equal(got.binds, want.binds)

    def test_cross_batch_duplicates_coalesce(self):
        shape = (16, 16)
        blocker = WindowBlocker(shape, block_size=4)
        a = COOTensor(shape, np.array([[1, 1]]), np.array([1.0]))
        b = COOTensor(shape, np.array([[1, 1]]), np.array([2.0]))
        blocker.admit(0, blocker.decompose(a))
        blocker.admit(1, blocker.decompose(b))
        snap = blocker.snapshot().to_coo()
        assert snap.nnz == 1
        assert snap.values[0] == 3.0

    def test_empty_window(self):
        blocker = WindowBlocker((8, 8), block_size=4)
        assert blocker.snapshot().to_coo().nnz == 0

    def test_memoization_on_version(self):
        shape = (16, 16)
        blocker = WindowBlocker(shape, block_size=4)
        batch = COOTensor(shape, np.array([[2, 3]]), np.array([1.0]))
        blocker.admit(0, blocker.decompose(batch))
        s1 = blocker.snapshot(version=1)
        s2 = blocker.snapshot(version=1)
        assert s2 is s1
        assert blocker.reblocks == 1 and blocker.cache_hits == 1
        blocker.admit(1, blocker.decompose(batch))
        s3 = blocker.snapshot(version=2)
        assert s3 is not s1
        assert blocker.reblocks == 2

    def test_bad_block_size(self):
        with pytest.raises(IngestError):
            WindowBlocker((8, 8), block_size=5)


class TestRunIngestBench:
    def test_store_journal_and_cached_resume(self, tmp_path):
        store = tmp_path / "ingest.jsonl"
        cfg = small_config()
        first = run_ingest_bench(cfg, store=store)
        state = RunStore(store).load()
        assert len(state.records) == len(first.records)
        assert not state.quarantined
        # resume serves the completed scenario from the journal
        again = run_ingest_bench(cfg, store=store, resume=True)
        assert again.from_cache
        assert again.events == first.events
        assert again.window_nnz == first.window_nnz
        assert again.latency_s == first.latency_s
        assert again.summary() == first.summary()
        assert len(again.records) == len(first.records)
        assert {(r.kernel, r.fmt) for r in again.records} == {
            (r.kernel, r.fmt) for r in first.records
        }

    def test_failure_quarantines_then_resume_clears(self, tmp_path):
        store = tmp_path / "ingest.jsonl"
        bad = small_config(query_every=0, fail_at_batch=4)
        with pytest.raises(IngestError):
            run_ingest_bench(bad, store=store)
        state = RunStore(store).load()
        assert len(state.quarantined) == 1
        (q,) = state.quarantined.values()
        assert q["failures"][0]["kind"] == "error"
        assert "injected" in q["failures"][0]["detail"]
        # the healthy config shares the fingerprint, so its success
        # supersedes the quarantine (sweep-resume discipline)
        good = dataclasses.replace(bad, fail_at_batch=0)
        result = run_ingest_bench(good, store=store, resume=True)
        assert not result.from_cache
        state = RunStore(store).load()
        assert not state.quarantined
        assert state.records
        ok, detail = verify_window_state(result)
        assert ok, detail

    def test_without_store(self):
        result = run_ingest_bench(small_config(query_every=0))
        assert not result.from_cache
        assert result.batches == result.config.nbatches
