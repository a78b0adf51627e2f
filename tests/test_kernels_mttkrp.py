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
