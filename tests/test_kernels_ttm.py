"""Tests for the Ttm kernel (COO→sCOO, HiCOO→sHiCOO) vs dense reference."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels import coo_ttm, dense_ttm, ghicoo_ttm, hicoo_ttm, ttm
from repro.parallel import OpenMPBackend
from repro.sptensor import (
    COOTensor,
    GHiCOOTensor,
    HiCOOTensor,
    SemiCOOTensor,
    SemiHiCOOTensor,
)
from tests.conftest import under_schedule


def mat_for(shape, mode, r=6, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).random((shape[mode], r)).astype(dtype)


class TestCooTtm:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense_all_modes(self, coo3, dense3, mode):
        x = coo3.astype(np.float64)
        u = mat_for(x.shape, mode, seed=mode)
        out = coo_ttm(x, u, mode)
        assert isinstance(out, SemiCOOTensor)
        np.testing.assert_allclose(out.to_dense(), dense_ttm(dense3, u, mode), rtol=1e-6)

    @pytest.mark.parametrize("mode", [0, 2, 3])
    def test_4th_order(self, coo4, dense4, mode):
        x = coo4.astype(np.float64)
        u = mat_for(x.shape, mode, r=3, seed=mode)
        out = coo_ttm(x, u, mode)
        np.testing.assert_allclose(out.to_dense(), dense_ttm(dense4, u, mode), rtol=1e-6)

    def test_output_semi_sparse_structure(self, coo3):
        u = mat_for(coo3.shape, 1, r=4)
        out = coo_ttm(coo3, u, 1)
        assert out.dense_modes == (1,)
        assert out.shape == (coo3.shape[0], 4, coo3.shape[2])
        assert out.nnz_sparse == coo3.num_fibers(1)

    def test_rank_one_matrix_matches_ttv(self, coo3):
        """Ttm with an R=1 matrix is Ttv with an extra unit mode."""
        from repro.kernels import coo_ttv

        x = coo3.astype(np.float64)
        v = np.random.default_rng(1).random(x.shape[2])
        out_ttm = coo_ttm(x, v[:, None], 2)
        out_ttv = coo_ttv(x, v, 2)
        np.testing.assert_allclose(
            out_ttm.to_dense()[:, :, 0], out_ttv.to_dense(), rtol=1e-6
        )

    def test_wrong_matrix_rows(self, coo3):
        with pytest.raises(ShapeError):
            coo_ttm(coo3, np.ones((coo3.shape[0] + 1, 4)), 0)

    def test_vector_rejected(self, coo3):
        with pytest.raises(ShapeError):
            coo_ttm(coo3, np.ones(coo3.shape[0]), 0)


class TestHicooTtm:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense(self, coo3, dense3, mode):
        h = HiCOOTensor.from_coo(coo3.astype(np.float64), 8)
        u = mat_for(coo3.shape, mode, seed=10 + mode)
        out = hicoo_ttm(h, u, mode)
        assert isinstance(out, SemiHiCOOTensor)
        np.testing.assert_allclose(out.to_dense(), dense_ttm(dense3, u, mode), rtol=1e-6)

    def test_ghicoo_requires_uncompressed_mode(self, coo3):
        g = GHiCOOTensor.from_coo(coo3, 8, (0, 1, 2))
        with pytest.raises(ShapeError):
            ghicoo_ttm(g, np.ones((coo3.shape[2], 4)), 2)

    def test_ghicoo_direct(self, coo3, dense3):
        g = GHiCOOTensor.from_coo(coo3.astype(np.float64), 8, (0, 2))
        u = mat_for(coo3.shape, 1, seed=7)
        out = ghicoo_ttm(g, u, 1)
        np.testing.assert_allclose(out.to_dense(), dense_ttm(dense3, u, 1), rtol=1e-6)

    def test_empty(self):
        g = GHiCOOTensor.from_coo(COOTensor.empty((6, 6, 6)), 4, (0, 1))
        out = ghicoo_ttm(g, np.ones((6, 3)), 2)
        assert out.nnz_sparse == 0


class TestTtmParallel:
    def test_openmp_matches_sequential(self, monkeypatch, coo3):
        x = coo3.astype(np.float64)
        u = mat_for(x.shape, 2, seed=8)
        ref = coo_ttm(x, u, 2)
        be = OpenMPBackend(nthreads=4)
        try:
            got = coo_ttm(x, u, 2, backend=under_schedule(monkeypatch, be, "dynamic"))
            np.testing.assert_allclose(got.to_dense(), ref.to_dense(), rtol=1e-12)
        finally:
            be.shutdown()

    def test_dispatcher(self, coo3, hicoo3):
        u = mat_for(coo3.shape, 0, seed=9)
        a = ttm(coo3, u, 0)
        b = ttm(hicoo3, u, 0)
        np.testing.assert_allclose(b.to_dense(), a.to_dense(), rtol=1e-4)
