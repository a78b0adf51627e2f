"""Tests for the CPU parallel substrate."""

import threading
import time

import numpy as np
import pytest

from repro.parallel import (
    OpenMPBackend,
    SequentialBackend,
    SlotPool,
    balanced_partition,
    bound_slot,
    chunk_ranges,
    current_slot,
    fixed_chunks,
    get_backend,
    guided_chunks,
    load_imbalance,
    makespan,
    register_backend,
)
from repro.types import Schedule


def collect_ranges(backend, total, **kw):
    ranges = []
    backend.parallel_for(total, lambda lo, hi: ranges.append((lo, hi)), **kw)
    return sorted(ranges)


def assert_covers(ranges, total):
    pos = 0
    for lo, hi in ranges:
        assert lo == pos, f"gap/overlap at {lo}, expected {pos}"
        assert hi > lo
        pos = hi
    assert pos == total


class TestPartitioners:
    def test_chunk_ranges_cover(self):
        assert_covers(chunk_ranges(100, 7), 100)

    def test_chunk_ranges_degenerate(self):
        assert chunk_ranges(0, 4) == []
        assert chunk_ranges(3, 10) == [(0, 1), (1, 2), (2, 3)]

    def test_fixed_chunks_cover(self):
        assert_covers(fixed_chunks(103, 10), 103)
        assert fixed_chunks(103, 10)[-1] == (100, 103)

    def test_guided_chunks_decrease(self):
        ranges = guided_chunks(1000, 4)
        assert_covers(ranges, 1000)
        sizes = [hi - lo for lo, hi in ranges]
        assert sizes[0] >= sizes[-1]

    def test_balanced_partition_equalizes_weight(self):
        # one huge item among many small: the huge one should sit alone-ish
        w = np.ones(100)
        w[50] = 100.0
        parts = balanced_partition(w, 4)
        assert_covers(parts, 100)
        sums = [w[lo:hi].sum() for lo, hi in parts]
        assert max(sums) < w.sum()  # did split at all
        # the heavy chunk cannot be subdivided below the single max item
        assert max(sums) <= 100 + 50

    def test_balanced_partition_zero_weights(self):
        parts = balanced_partition(np.zeros(10), 3)
        assert_covers(parts, 10)


class TestLoadMetrics:
    def test_imbalance_balanced(self):
        assert load_imbalance(np.full(8, 5.0)) == pytest.approx(1.0)

    def test_imbalance_skewed(self):
        assert load_imbalance(np.array([1.0, 1.0, 6.0])) == pytest.approx(6.0 / (8 / 3))

    def test_imbalance_empty(self):
        assert load_imbalance(np.array([])) == 1.0

    def test_makespan_single_worker(self):
        assert makespan(np.array([1.0, 2.0, 3.0]), 1) == pytest.approx(6.0)

    def test_makespan_lower_bounds(self):
        costs = np.array([5.0, 1.0, 1.0, 1.0])
        ms = makespan(costs, 2)
        assert ms >= max(5.0, costs.sum() / 2)
        assert ms <= costs.sum()

    def test_makespan_large_uses_bound(self):
        costs = np.ones(100000)
        assert makespan(costs, 10) == pytest.approx(10000.0)

    def test_makespan_empty(self):
        assert makespan(np.array([]), 4) == 0.0


class TestSequentialBackend:
    def test_covers_iteration_space(self):
        be = SequentialBackend(chunks_hint=5)
        assert_covers(collect_ranges(be, 100), 100)

    def test_schedules_all_cover(self):
        be = SequentialBackend(chunks_hint=3)
        for sched in Schedule:
            assert_covers(collect_ranges(be, 57, schedule=sched), 57)

    def test_explicit_chunk(self):
        be = SequentialBackend()
        ranges = collect_ranges(be, 10, chunk=3)
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]


class TestOpenMPBackend:
    @pytest.fixture
    def be(self):
        backend = OpenMPBackend(nthreads=4)
        yield backend
        backend.shutdown()

    def test_static_covers(self, be):
        assert_covers(collect_ranges(be, 1000), 1000)

    def test_dynamic_covers(self, be):
        assert_covers(
            collect_ranges(be, 1000, schedule="dynamic", chunk=64), 1000
        )

    def test_guided_covers(self, be):
        assert_covers(collect_ranges(be, 1000, schedule="guided"), 1000)

    def test_zero_total_noop(self, be):
        assert collect_ranges(be, 0) == []

    def test_parallel_sum_matches_serial(self, be):
        data = np.random.default_rng(0).random(10000)
        out = np.zeros(len(data))

        def body(lo, hi):
            out[lo:hi] = data[lo:hi] * 2

        be.parallel_for(len(data), body, schedule="dynamic", chunk=512)
        np.testing.assert_allclose(out, data * 2)

    def test_exception_propagates(self, be):
        def body(lo, hi):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            be.parallel_for(100, body)

    def test_map_ranges(self, be):
        seen = []
        be.map_ranges([(0, 5), (5, 9)], lambda lo, hi: seen.append((lo, hi)))
        assert sorted(seen) == [(0, 5), (5, 9)]

    def test_env_thread_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert OpenMPBackend().nthreads == 3


class TestChunkValidation:
    """chunk=0 must be rejected loudly, not silently swapped for a default
    (the old ``chunk or default`` discarded falsy chunks)."""

    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_openmp_rejects_nonpositive_chunk(self, bad):
        be = OpenMPBackend(nthreads=2)
        try:
            with pytest.raises(ValueError, match="chunk must be >= 1"):
                be.parallel_for(100, lambda lo, hi: None, chunk=bad)
        finally:
            be.shutdown()

    @pytest.mark.parametrize("bad", [0, -5])
    def test_sequential_rejects_nonpositive_chunk(self, bad):
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            SequentialBackend().parallel_for(100, lambda lo, hi: None, chunk=bad)

    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided"])
    def test_rejected_on_every_schedule(self, schedule):
        be = OpenMPBackend(nthreads=2)
        try:
            with pytest.raises(ValueError, match="chunk must be >= 1"):
                be.parallel_for(
                    100, lambda lo, hi: None, schedule=schedule, chunk=0
                )
        finally:
            be.shutdown()

    def test_chunk_none_still_uses_default(self):
        be = OpenMPBackend(nthreads=2, default_chunk=32)
        try:
            ranges = []
            be.parallel_for(
                100, lambda lo, hi: ranges.append((lo, hi)),
                schedule="dynamic", chunk=None,
            )
            assert max(hi - lo for lo, hi in ranges) == 32
        finally:
            be.shutdown()


class TestExceptionPropagation:
    def test_earliest_chunk_failure_raised(self):
        # Every chunk fails with a distinct message; the error raised must
        # be chunk 0's (chunk order), not an arbitrary member of the
        # unordered wait() done-set.
        be = OpenMPBackend(nthreads=4)
        try:
            def body(lo, hi):
                raise ValueError(f"chunk@{lo}")

            with pytest.raises(ValueError, match=r"^chunk@0$"):
                be.parallel_for(640, body, schedule="dynamic", chunk=10)
        finally:
            be.shutdown()

    def test_failure_cancels_pending_chunks(self):
        be = OpenMPBackend(nthreads=2)
        started = []
        lock = threading.Lock()

        def body(lo, hi):
            with lock:
                started.append(lo)
            if lo == 0:
                raise RuntimeError("early failure")
            time.sleep(0.02)

        try:
            with pytest.raises(RuntimeError, match="early failure"):
                be.parallel_for(640, body, schedule="dynamic", chunk=10)
            # 64 chunks planned; the failure in chunk 0 cancels the queue
            # while workers sleep, so most chunks never start.
            assert len(started) < 32
        finally:
            be.shutdown()

    def test_exception_type_preserved(self):
        be = OpenMPBackend(nthreads=2)

        class KernelBug(Exception):
            pass

        def body(lo, hi):
            if lo >= 50:
                raise KernelBug("exact type please")

        try:
            with pytest.raises(KernelBug, match="exact type"):
                be.parallel_for(100, body, schedule="dynamic", chunk=10)
        finally:
            be.shutdown()

    def test_backend_usable_after_failure(self):
        be = OpenMPBackend(nthreads=2)
        try:
            with pytest.raises(RuntimeError):
                be.parallel_for(
                    100, lambda lo, hi: (_ for _ in ()).throw(RuntimeError("x")),
                    schedule="dynamic", chunk=10,
                )
            out = np.zeros(100)
            be.parallel_for(
                100, lambda lo, hi: out.__setitem__(slice(lo, hi), 1.0),
                schedule="dynamic", chunk=10,
            )
            assert out.sum() == 100
        finally:
            be.shutdown()


class TestBackendLifecycle:
    def test_shutdown_then_reuse_recreates_executor(self):
        be = OpenMPBackend(nthreads=2)
        try:
            assert_covers(collect_ranges(be, 100, schedule="dynamic", chunk=8), 100)
            be.shutdown()
            assert be._pool is None
            assert_covers(collect_ranges(be, 100, schedule="dynamic", chunk=8), 100)
            assert be._pool is not None
        finally:
            be.shutdown()

    def test_ensure_pool_race_creates_one_executor(self, monkeypatch):
        import repro.parallel.openmp as openmp_mod

        created = []
        real = openmp_mod.ThreadPoolExecutor

        class Counting(real):
            def __init__(self, *args, **kw):
                created.append(self)
                super().__init__(*args, **kw)

        monkeypatch.setattr(openmp_mod, "ThreadPoolExecutor", Counting)
        be = OpenMPBackend(nthreads=4)
        barrier = threading.Barrier(2)

        def loop():
            barrier.wait(timeout=5)
            be.parallel_for(200, lambda lo, hi: None, schedule="dynamic", chunk=10)

        try:
            threads = [threading.Thread(target=loop) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(created) == 1, "racing loops must share one executor"
        finally:
            be.shutdown()


class TestSlotPool:
    def test_lease_binds_and_releases(self):
        slots = SlotPool(2)
        assert current_slot() is None
        with slots.lease() as slot:
            assert slot == 0
            assert current_slot() == 0
            with slots.lease() as inner:
                assert inner == 1
        assert current_slot() is None

    def test_exhaustion_raises(self):
        slots = SlotPool(1)
        with slots.lease():
            with pytest.raises(RuntimeError, match="SlotPool exhausted"):
                with slots.lease():
                    pass

    def test_released_slot_reusable(self):
        slots = SlotPool(1)
        for _ in range(3):
            with slots.lease() as slot:
                assert slot == 0

    def test_bound_slot_restores_previous(self):
        with bound_slot(3):
            assert current_slot() == 3
            with bound_slot(5):
                assert current_slot() == 5
            assert current_slot() == 3
        assert current_slot() is None

    def test_backend_chunks_run_under_slots(self):
        be = OpenMPBackend(nthreads=3)
        seen = set()
        lock = threading.Lock()

        def body(lo, hi):
            with lock:
                seen.add(current_slot())

        try:
            be.parallel_for(300, body, schedule="dynamic", chunk=10)
            assert seen and seen <= {0, 1, 2}
        finally:
            be.shutdown()


class TestBackendRegistry:
    def test_default_is_sequential(self):
        assert isinstance(get_backend(None), SequentialBackend)

    def test_lookup_by_name(self):
        assert isinstance(get_backend("openmp"), OpenMPBackend)
        assert get_backend("omp") is get_backend("openmp")

    def test_instance_passthrough(self):
        be = SequentialBackend()
        assert get_backend(be) is be

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_backend("tpu")

    def test_register_custom(self):
        be = SequentialBackend(chunks_hint=2)
        register_backend("custom-test", be)
        assert get_backend("custom-test") is be
