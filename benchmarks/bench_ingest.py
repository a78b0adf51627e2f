"""Streaming-ingestion benchmarks (the FireHose-style live scenario).

Times the end-to-end ingestion bench (:mod:`repro.ingest`) at varying
worker counts, times the sliding window's pushes and reads and
incremental vs from-scratch re-blocking, and checks the concurrency
knobs don't change the answer (the final window is bit-identical across
them).
"""

import numpy as np
import pytest

from repro.ingest import (
    IngestBench,
    IngestConfig,
    WindowBlocker,
    reference_window_state,
)
from repro.sptensor import COOTensor, HiCOOTensor
from repro.stream import SlidingWindowTensor

SHAPE = (512, 512, 16)
EVENTS = 60_000
BATCH = 2048
WINDOW = 6
BLOCK = 32


def config(**kw):
    kw.setdefault("shape", SHAPE)
    kw.setdefault("events", EVENTS)
    kw.setdefault("batch", BATCH)
    kw.setdefault("window", WINDOW)
    kw.setdefault("queue_depth", 8)
    kw.setdefault("rank", 8)
    kw.setdefault("seed", 13)
    kw.setdefault("block_size", BLOCK)
    return IngestConfig(**kw)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_ingest_throughput(benchmark, workers):
    cfg = config(workers=workers, query_every=0)
    result = benchmark.pedantic(
        lambda: IngestBench(cfg).run(), rounds=1, iterations=1, warmup_rounds=0
    )
    assert result.batches == cfg.nbatches
    benchmark.extra_info["events_per_s"] = result.events_per_s
    benchmark.extra_info["p99_latency_s"] = result.latency_s["p99"]


def test_ingest_with_queries(benchmark):
    cfg = config(workers=4, query_every=4)
    result = benchmark.pedantic(
        lambda: IngestBench(cfg).run(), rounds=1, iterations=1, warmup_rounds=0
    )
    assert result.queries > 0
    benchmark.extra_info["events_per_s"] = result.events_per_s
    benchmark.extra_info["queries"] = result.queries


def test_window_eviction_ablation(benchmark):
    """Cost of every push plus one bit-exact read of the final window."""
    from repro.generate import powerlaw_stream

    batches = list(
        powerlaw_stream(EVENTS, SHAPE, dense_modes=(2,), seed=13, batch=BATCH)
    )

    def run():
        w = SlidingWindowTensor(SHAPE, WINDOW)
        for coords, values in batches:
            w.push(coords, values)
        return w, w.state

    w, state = benchmark(run)
    assert w.evictions == len(batches) - WINDOW
    assert state.nnz > 0


def test_incremental_reblock_vs_from_coo(benchmark):
    """The incremental re-blocker against from_coo on every snapshot."""
    from repro.generate import powerlaw_stream

    batches = [
        COOTensor(SHAPE, c, v).coalesce()
        for c, v in powerlaw_stream(
            EVENTS, SHAPE, dense_modes=(2,), seed=13, batch=BATCH
        )
    ]

    def incremental():
        blocker = WindowBlocker(SHAPE, BLOCK)
        snaps = 0
        for bid, batch in enumerate(batches):
            blocker.admit(bid, blocker.decompose(batch))
            if bid >= WINDOW:
                blocker.evict(bid - WINDOW)
            blocker.snapshot()
            snaps += 1
        return snaps

    assert benchmark(incremental) == len(batches)


def test_reblock_baseline_from_coo(benchmark):
    from repro.generate import powerlaw_stream

    batches = list(
        powerlaw_stream(EVENTS, SHAPE, dense_modes=(2,), seed=13, batch=BATCH)
    )

    def from_scratch():
        w = SlidingWindowTensor(SHAPE, WINDOW)
        snaps = 0
        for coords, values in batches:
            w.push(coords, values)
            HiCOOTensor.from_coo(w.state, BLOCK)
            snaps += 1
        return snaps

    assert benchmark(from_scratch) == len(batches)


def test_worker_count_invariance():
    """The concurrency knobs must not change the measured stream: the
    final window is bit-identical across worker counts and churn."""
    want = reference_window_state(config(workers=1, query_every=0))
    for workers, lifetime in [(1, 0), (4, 0), (3, 2)]:
        cfg = config(workers=workers, query_every=0, worker_lifetime=lifetime)
        got = IngestBench(cfg).run().state
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(
            got.values.view(np.uint8), want.values.view(np.uint8)
        )
