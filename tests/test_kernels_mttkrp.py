"""Tests for the Mttkrp kernel (COO atomic/sort, HiCOO blocked)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels import coo_mttkrp, dense_mttkrp, hicoo_mttkrp, mttkrp
from repro.parallel import OpenMPBackend
from repro.sptensor import COOTensor, HiCOOTensor
from tests.conftest import random_mats


class TestCooMttkrp:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense_all_modes(self, coo3, dense3, mats3, mode):
        x = coo3.astype(np.float64)
        got = coo_mttkrp(x, mats3, mode)
        want = dense_mttkrp(dense3.astype(np.float64), mats3, mode)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_4th_order(self, coo4, dense4, mats4, mode):
        x = coo4.astype(np.float64)
        got = coo_mttkrp(x, mats4, mode)
        want = dense_mttkrp(dense4.astype(np.float64), mats4, mode)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_sort_method_matches_atomic(self, coo3, mats3):
        x = coo3.astype(np.float64)
        a = coo_mttkrp(x, mats3, 1, method="atomic")
        b = coo_mttkrp(x, mats3, 1, method="sort")
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_unknown_method(self, coo3, mats3):
        with pytest.raises(ValueError):
            coo_mttkrp(coo3, mats3, 0, method="magic")

    def test_product_mode_matrix_ignored(self, coo3, mats3):
        x = coo3.astype(np.float64)
        mats_none = list(mats3)
        mats_none[0] = None
        np.testing.assert_allclose(
            coo_mttkrp(x, mats_none, 0), coo_mttkrp(x, mats3, 0), rtol=1e-12
        )

    def test_wrong_matrix_count(self, coo3):
        with pytest.raises(ShapeError):
            coo_mttkrp(coo3, [np.ones((5, 2))], 0)

    def test_mismatched_rank(self, coo3):
        mats = random_mats(coo3.shape, 3)
        mats[2] = np.ones((coo3.shape[2], 4))
        with pytest.raises(ShapeError, match="share R"):
            coo_mttkrp(coo3, mats, 0)

    def test_wrong_matrix_rows(self, coo3):
        mats = random_mats(coo3.shape, 3)
        mats[1] = np.ones((coo3.shape[1] + 2, 3))
        with pytest.raises(ShapeError):
            coo_mttkrp(coo3, mats, 0)

    def test_empty_tensor(self):
        t = COOTensor.empty((4, 5, 6))
        out = coo_mttkrp(t, random_mats(t.shape, 2), 0)
        assert out.shape == (4, 2)
        assert out.sum() == 0

    def test_output_shape(self, coo3, mats3):
        out = coo_mttkrp(coo3, mats3, 2)
        assert out.shape == (coo3.shape[2], mats3[0].shape[1])


class TestHicooMttkrp:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense(self, coo3, dense3, mats3, mode):
        h = HiCOOTensor.from_coo(coo3.astype(np.float64), 8)
        got = hicoo_mttkrp(h, mats3, mode)
        want = dense_mttkrp(dense3.astype(np.float64), mats3, mode)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_4th_order(self, coo4, dense4, mats4):
        h = HiCOOTensor.from_coo(coo4.astype(np.float64), 4)
        got = hicoo_mttkrp(h, mats4, 2)
        want = dense_mttkrp(dense4.astype(np.float64), mats4, 2)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    @pytest.mark.parametrize("block_size", [2, 16, 128])
    def test_block_size_invariance(self, coo3, mats3, block_size):
        x = coo3.astype(np.float64)
        ref = coo_mttkrp(x, mats3, 0)
        h = HiCOOTensor.from_coo(x, block_size)
        np.testing.assert_allclose(hicoo_mttkrp(h, mats3, 0), ref, rtol=1e-8)

    def test_empty(self):
        h = HiCOOTensor.from_coo(COOTensor.empty((4, 5, 6)), 4)
        out = hicoo_mttkrp(h, random_mats((4, 5, 6), 2), 1)
        assert out.shape == (5, 2)
        assert out.sum() == 0


class TestMttkrpParallel:
    def test_coo_openmp_matches(self, coo3, mats3):
        x = coo3.astype(np.float64)
        ref = coo_mttkrp(x, mats3, 0)
        be = OpenMPBackend(nthreads=4)
        try:
            got = coo_mttkrp(x, mats3, 0, backend=be)
            np.testing.assert_allclose(got, ref, rtol=1e-10)
        finally:
            be.shutdown()

    def test_hicoo_openmp_matches(self, coo3, mats3):
        x = coo3.astype(np.float64)
        h = HiCOOTensor.from_coo(x, 8)
        ref = hicoo_mttkrp(h, mats3, 1)
        be = OpenMPBackend(nthreads=4)
        try:
            got = hicoo_mttkrp(h, mats3, 1, backend=be)
            np.testing.assert_allclose(got, ref, rtol=1e-10)
        finally:
            be.shutdown()

    def test_dispatcher(self, coo3, hicoo3, mats3):
        a = mttkrp(coo3, mats3, 0)
        b = mttkrp(hicoo3, mats3, 0)
        np.testing.assert_allclose(a, b, rtol=1e-4)


def broadcast_contributions(cols, values, mats, dtype, sel=slice(None)):
    """The former ``_row_contributions``: cast values, then one fresh
    broadcast product with the first factor's fancy-indexed rows."""
    contrib = values[sel].astype(dtype, copy=True)[:, None]
    first = True
    for col, u in zip(cols, mats):
        if u is None:
            continue
        rows = u[col[sel], :]
        if first:
            contrib = contrib * rows
            first = False
        else:
            contrib *= rows
    return contrib


class TestRowContributions:
    """``_row_contributions`` gathers rows with ``np.take`` into a thread
    buffer and writes the products to ``out``; it must equal the
    broadcast formula bit for bit."""

    @pytest.mark.parametrize("product_mode", [0, 1, 2])
    @pytest.mark.parametrize("vdt", [np.float32, np.float64])
    @pytest.mark.parametrize("mdt", [np.float32, np.float64])
    def test_matches_broadcast_formula(self, product_mode, vdt, mdt):
        from repro.kernels.mttkrp import _row_contributions

        rng = np.random.default_rng(product_mode)
        shape, nnz = (30, 20, 25), 400
        cols = [rng.integers(0, s, nnz).astype(np.int64) for s in shape]
        values = rng.standard_normal(nnz).astype(vdt)
        mats = [rng.standard_normal((s, 6)).astype(mdt) for s in shape]
        cols[product_mode] = mats[product_mode] = None
        dtype = np.result_type(values, *[u for u in mats if u is not None])
        owner = np.sort(rng.choice(nnz, 150, replace=False))
        for sel in (slice(None), slice(37, 290), slice(5, 5), owner,
                    owner[:0], owner[::-1]):
            want = broadcast_contributions(cols, values, mats, dtype, sel)
            out = np.full(want.shape, np.nan, dtype=dtype)
            got = _row_contributions(cols, values, mats, sel, out)
            assert got is out
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want, strict=True)

    @pytest.mark.parametrize("vdt", [np.float32, np.float64])
    def test_mixed_factor_dtypes(self, vdt):
        # float32 values and first factor with a float64 later factor: the
        # first product must already be formed in float64, as the oracle's
        # cast-then-multiply does.
        from repro.kernels.mttkrp import _row_contributions

        rng = np.random.default_rng(7)
        shape, nnz = (30, 20, 25, 15), 500
        cols = [rng.integers(0, s, nnz).astype(np.int64) for s in shape]
        values = rng.standard_normal(nnz).astype(vdt)
        dts = (np.float32, np.float32, np.float64, np.float32)
        mats = [rng.standard_normal((s, 6)).astype(d) for s, d in zip(shape, dts)]
        cols[3] = mats[3] = None
        dtype = np.result_type(values, *[u for u in mats if u is not None])
        for sel in (slice(None), np.sort(rng.choice(nnz, 200, replace=False))):
            want = broadcast_contributions(cols, values, mats, dtype, sel)
            got = _row_contributions(cols, values, mats, sel, np.empty(want.shape, dtype))
            np.testing.assert_array_equal(got, want, strict=True)


class TestBlockedLowering:
    """Owner ranges and the ``sort`` contributions run in blocks of
    ``plans._SCATTER_BLOCK`` entries over per-thread buffers; block
    boundaries must not change a bit, and a warm call must not allocate
    contribution arrays that grow with the tensor."""

    @pytest.mark.parametrize("vdt,mdt", [(np.float32, np.float32), (np.float32, np.float64),
                                         (np.float64, np.float32)])
    def test_tiny_blocks_give_the_same_bits(self, vdt, mdt, monkeypatch):
        import repro.kernels.plans as plans

        x = COOTensor.random((40, 30, 20), nnz=900, rng=21)
        x = COOTensor(x.shape, x.indices, x.values.astype(vdt))
        h = HiCOOTensor.from_coo(x, 4)
        mats = [m.astype(mdt) for m in random_mats(x.shape, 5, seed=22)]
        omp = OpenMPBackend(nthreads=3)
        cases = [
            (f, t, mode, method, be)
            for f, t in ((coo_mttkrp, x), (hicoo_mttkrp, h))
            for mode in range(3)
            for method in ("atomic", "sort", "owner")
            for be in ("sequential", omp)
        ]
        try:
            want = [f(t, mats, mode, be, method=method) for f, t, mode, method, be in cases]
            monkeypatch.setattr(plans, "_SCATTER_BLOCK", 7)
            for case, w in zip(cases, want):
                f, t, mode, method, be = case
                np.testing.assert_array_equal(f(t, mats, mode, be, method=method), w, strict=True)
        finally:
            omp.shutdown()

    def test_thread_buffers_are_reused_per_thread(self):
        import threading

        from repro.kernels.plans import thread_buffer

        a = thread_buffer("test", (6, 4), np.float64)
        b = thread_buffer("test", (3, 4), np.float64)
        assert b.shape == (3, 4) and np.shares_memory(a, b)
        assert not np.shares_memory(a, thread_buffer("test", (6, 4), np.float32))
        grown = thread_buffer("test", (20, 4), np.float64)
        assert grown.shape == (20, 4) and not np.shares_memory(a, grown)
        other = []
        t = threading.Thread(target=lambda: other.append(thread_buffer("test", (3, 4), np.float64)))
        t.start()
        t.join()
        assert not np.shares_memory(other[0], grown)

    def test_warm_call_allocates_no_contribution_arrays(self):
        import tracemalloc

        rank, nnz = 32, 60_000
        x = COOTensor.random((400, 300, 200), nnz=nnz, rng=23)
        mats = random_mats(x.shape, rank, seed=24)
        omp = OpenMPBackend(nthreads=2)
        try:
            for mode in range(3):
                coo_mttkrp(x, mats, mode, omp)  # plans and thread buffers
            tracemalloc.start()
            try:
                for mode in range(3):
                    coo_mttkrp(x, mats, mode, omp)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            omp.shutdown()
        # One contribution array of a whole owner range would take
        # nnz / 2 * rank * 8 bytes (7.7 MB); warm calls allocate the
        # outputs and per-block index gathers only.
        assert peak < nnz // 2 * rank * 8 // 2
