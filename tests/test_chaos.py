"""Chaos scheduling: determinism, worker churn, failure injection.

A kernel run under ``ChaosBackend(churn=1.0)`` executes every chunk on a
fresh OS thread, in a seeded shuffled order.  Kernels must return the
sequential result regardless, and every failure must surface as the
earliest failing chunk in chunk order.
"""

import threading

import numpy as np
import pytest

from repro.kernels import coo_mttkrp, coo_ttv
from repro.kernels.plans import fiber_plan
from repro.parallel import ChaosBackend, ChaosError, OpenMPBackend, SequentialBackend
from repro.sptensor import COOTensor


@pytest.fixture(scope="module")
def tensor():
    return COOTensor.random((60, 50, 40), 2000, rng=3).astype(np.float64)


@pytest.fixture(scope="module")
def mats(tensor):
    rng = np.random.default_rng(9)
    return [rng.random((s, 4)) for s in tensor.shape]


def make_chaos(nthreads=2, default_chunk=256, **kw):
    return ChaosBackend(
        OpenMPBackend(nthreads=nthreads, default_chunk=default_chunk), **kw
    )


class TestShuffleDeterminism:
    def run_order(self, seed, total=64, chunk=8):
        chaos = make_chaos(nthreads=1, seed=seed)
        order = []
        try:
            chaos.parallel_for(
                total, lambda lo, hi: order.append((lo, hi)),
                schedule="dynamic", chunk=chunk,
            )
        finally:
            chaos.shutdown()
        return order

    def test_same_seed_replays_same_order(self):
        assert self.run_order(3) == self.run_order(3)

    def test_order_is_shuffled_but_covering(self):
        order = self.run_order(3)
        expected = [(i, i + 8) for i in range(0, 64, 8)]
        assert sorted(order) == expected
        assert order != expected, "seed 3 must actually permute the chunks"

    def test_different_seeds_differ(self):
        assert self.run_order(3) != self.run_order(4)

    def test_reseed_restarts_stream(self):
        chaos = make_chaos(nthreads=1, seed=7)
        try:
            a, b = [], []
            chaos.parallel_for(
                64, lambda lo, hi: a.append(lo), schedule="dynamic", chunk=8
            )
            chaos.reseed(7)
            chaos.parallel_for(
                64, lambda lo, hi: b.append(lo), schedule="dynamic", chunk=8
            )
            assert a == b
        finally:
            chaos.shutdown()

    def test_shuffle_off_preserves_chunk_order(self):
        chaos = make_chaos(nthreads=1, seed=0, shuffle=False)
        try:
            order = []
            chaos.parallel_for(
                40, lambda lo, hi: order.append(lo), schedule="dynamic", chunk=8
            )
            assert order == [0, 8, 16, 24, 32]
        finally:
            chaos.shutdown()


class TestChaosEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mttkrp_matches_reference_under_chaos(self, tensor, mats, seed):
        ref = coo_mttkrp(tensor, mats, 0)
        chaos = make_chaos(seed=seed, churn=0.5)
        try:
            got = coo_mttkrp(tensor, mats, 0, backend=chaos)
            np.testing.assert_allclose(got, ref, rtol=1e-12)
        finally:
            chaos.shutdown()

    def test_ttv_matches_reference_under_chaos(self, tensor):
        v = np.random.default_rng(2).random(tensor.shape[1])
        ref = coo_ttv(tensor, v, 1)
        chaos = make_chaos(seed=5, churn=0.3)
        try:
            got = coo_ttv(tensor, v, 1, backend=chaos)
            assert np.array_equal(got.values, ref.values)
        finally:
            chaos.shutdown()

    def test_owner_method_bit_identical_under_chaos(self, tensor, mats):
        ref = coo_mttkrp(tensor, mats, 0)
        chaos = make_chaos(seed=11, churn=0.5)
        try:
            got = coo_mttkrp(tensor, mats, 0, backend=chaos, method="owner")
            assert np.array_equal(got, ref)
        finally:
            chaos.shutdown()


class TestWorkerChurnRegressionTrap:
    """Every chunk on a fresh OS thread must not change any result."""

    def test_fixed_pool_survives_total_churn(self, tensor):
        # Fiber sums over 8-fiber dynamic chunks, each on a fresh thread.
        plan = fiber_plan(tensor, 1)
        fptr = plan.fibers.fptr
        vals = tensor.values[plan.perm].astype(np.float64)
        starts = fptr[:-1]

        def reduce_fibers(backend):
            out = np.zeros(plan.nfibers)

            def body(lo, hi):
                seg = vals[starts[lo]:fptr[hi]]
                out[lo:hi] = np.add.reduceat(seg, starts[lo:hi] - starts[lo])

            backend.parallel_for(plan.nfibers, body, schedule="dynamic", chunk=8)
            return out

        ref = reduce_fibers(SequentialBackend())
        chaos = make_chaos(seed=5, churn=1.0)
        try:
            got = reduce_fibers(chaos)
            assert np.array_equal(got, ref)
            # More fresh threads ran chunks than the slot pool has slots:
            # each lease is per chunk, so churn never exhausts the pool.
            assert chaos.churned > chaos.nthreads
        finally:
            chaos.shutdown()

    def test_churned_threads_get_distinct_idents(self):
        chaos = make_chaos(nthreads=1, seed=0, shuffle=False, churn=1.0)
        idents = []
        try:
            chaos.parallel_for(
                40, lambda lo, hi: idents.append(threading.get_ident()),
                schedule="dynamic", chunk=8,
            )
            # Parked (still-alive) churn threads guarantee distinctness.
            assert len(set(idents)) == 5 == chaos.churned
        finally:
            chaos.shutdown()

    def test_drain_joins_parked_threads(self):
        chaos = make_chaos(nthreads=1, seed=0, churn=1.0)
        try:
            before = threading.active_count()
            chaos.parallel_for(32, lambda lo, hi: None, schedule="dynamic", chunk=8)
            # _execute drains on exit: no parked thread outlives the region.
            assert threading.active_count() == before
            assert chaos._parked == []
        finally:
            chaos.shutdown()


class TestFailureInjection:
    def test_fail_chunks_raises_and_skips_rest(self):
        chaos = make_chaos(nthreads=1, seed=0, shuffle=False, fail_chunks={2})
        ran = []
        try:
            with pytest.raises(ChaosError, match=r"chunk 2 \[16, 24\)"):
                chaos.parallel_for(
                    40, lambda lo, hi: ran.append(lo), schedule="dynamic", chunk=8
                )
            # Chunks after the injected failure never start (mirrors the
            # executor cancelling not-yet-started futures).
            assert ran == [0, 8]
        finally:
            chaos.shutdown()

    def test_failure_rate_one_fails_first_chunk(self):
        chaos = make_chaos(nthreads=1, seed=1, failure_rate=1.0)
        ran = []
        try:
            with pytest.raises(ChaosError, match="injected failure"):
                chaos.parallel_for(
                    40, lambda lo, hi: ran.append(lo), schedule="dynamic", chunk=8
                )
            assert ran == []
        finally:
            chaos.shutdown()

    def test_earliest_chunk_order_failure_wins(self):
        # Shuffled execution, two injected failures: the raised error is
        # the earliest in *chunk* order regardless of execution order.
        chaos = make_chaos(nthreads=1, seed=9, fail_chunks={1, 3})
        try:
            with pytest.raises(ChaosError, match="chunk [13] "):
                chaos.parallel_for(40, lambda lo, hi: None, schedule="dynamic", chunk=8)
        finally:
            chaos.shutdown()

    def test_body_exception_propagates(self):
        chaos = make_chaos(nthreads=1, seed=0, shuffle=False)

        def body(lo, hi):
            if lo == 16:
                raise ValueError("kernel bug")

        try:
            with pytest.raises(ValueError, match="kernel bug"):
                chaos.parallel_for(40, body, schedule="dynamic", chunk=8)
        finally:
            chaos.shutdown()

    def test_exception_inside_churned_chunk_propagates(self):
        chaos = make_chaos(nthreads=1, seed=0, shuffle=False, churn=1.0)

        def body(lo, hi):
            if lo == 8:
                raise ValueError("churned bug")

        try:
            with pytest.raises(ValueError, match="churned bug"):
                chaos.parallel_for(24, body, schedule="dynamic", chunk=8)
            assert chaos._parked == []  # error path still drains
        finally:
            chaos.shutdown()

    def test_usable_after_failure(self, tensor, mats):
        chaos = make_chaos(seed=0, fail_chunks={0})
        try:
            with pytest.raises(ChaosError):
                coo_mttkrp(tensor, mats, 0, backend=chaos)
            chaos.fail_chunks = frozenset()
            got = coo_mttkrp(tensor, mats, 0, backend=chaos)
            np.testing.assert_allclose(got, coo_mttkrp(tensor, mats, 0), rtol=1e-12)
        finally:
            chaos.shutdown()


class TestChaosWiring:
    def test_requires_planning_inner(self):
        from repro.parallel import SequentialBackend

        with pytest.raises(TypeError, match="plan"):
            ChaosBackend(SequentialBackend())

    def test_map_ranges_covers(self):
        chaos = make_chaos(nthreads=2, seed=2)
        seen = []
        try:
            chaos.map_ranges(
                [(0, 5), (5, 9), (9, 12)], lambda lo, hi: seen.append((lo, hi))
            )
            assert sorted(seen) == [(0, 5), (5, 9), (9, 12)]
        finally:
            chaos.shutdown()

    def test_empty_loop_noop(self):
        chaos = make_chaos(nthreads=2)
        try:
            chaos.parallel_for(0, lambda lo, hi: pytest.fail("must not run"))
        finally:
            chaos.shutdown()
