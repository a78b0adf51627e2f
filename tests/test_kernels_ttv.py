"""Tests for the Ttv kernel (COO, HiCOO, gHiCOO) vs the dense reference."""

import functools

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels import coo_ttm, coo_ttv, dense_ttv, ghicoo_ttv, hicoo_ttm, hicoo_ttv, ttv
from repro.kernels.plans import fiber_plan
from repro.parallel import OpenMPBackend, SequentialBackend
from repro.sptensor import COOTensor, GHiCOOTensor, HiCOOTensor
from repro.types import Schedule
from tests.conftest import under_schedule


def vec_for(shape, mode, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).random(shape[mode]).astype(dtype)


class TestCooTtv:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense_all_modes(self, coo3, dense3, mode):
        x = coo3.astype(np.float64)
        v = vec_for(x.shape, mode)
        out = coo_ttv(x, v, mode)
        np.testing.assert_allclose(out.to_dense(), dense_ttv(dense3, v, mode), rtol=1e-6)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_4th_order(self, coo4, dense4, mode):
        x = coo4.astype(np.float64)
        v = vec_for(x.shape, mode, seed=mode)
        out = coo_ttv(x, v, mode)
        np.testing.assert_allclose(out.to_dense(), dense_ttv(dense4, v, mode), rtol=1e-6)

    def test_output_shape_drops_mode(self, coo3):
        v = vec_for(coo3.shape, 1)
        out = coo_ttv(coo3, v, 1)
        assert out.shape == (coo3.shape[0], coo3.shape[2])

    def test_output_nnz_equals_fiber_count(self, coo3):
        """The sparse-dense property: one output non-zero per fiber."""
        v = np.ones(coo3.shape[2], dtype=np.float64)
        out = coo_ttv(coo3, v, 2)
        assert out.nnz == fiber_plan(coo3, 2).nfibers

    def test_negative_mode(self, coo3, dense3):
        v = vec_for(coo3.shape, 2)
        out = coo_ttv(coo3.astype(np.float64), v, -1)
        np.testing.assert_allclose(out.to_dense(), dense_ttv(dense3, v, 2), rtol=1e-6)

    def test_wrong_vector_length(self, coo3):
        with pytest.raises(ShapeError):
            coo_ttv(coo3, np.ones(coo3.shape[2] + 1), 2)

    def test_order1_rejected(self):
        t = COOTensor((5,), np.array([[1]]), np.array([1.0]))
        with pytest.raises(ShapeError):
            coo_ttv(t, np.ones(5), 0)

    def test_empty_tensor(self):
        out = coo_ttv(COOTensor.empty((4, 5, 6)), np.ones(6), 2)
        assert out.nnz == 0
        assert out.shape == (4, 5)

    def test_zero_vector_zero_output_values(self, coo3):
        out = coo_ttv(coo3, np.zeros(coo3.shape[0]), 0)
        assert np.abs(out.values).max(initial=0) == 0


class TestHicooTtv:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense(self, coo3, dense3, mode):
        h = HiCOOTensor.from_coo(coo3.astype(np.float64), 8)
        v = vec_for(coo3.shape, mode)
        out = hicoo_ttv(h, v, mode)
        assert isinstance(out, HiCOOTensor)
        np.testing.assert_allclose(
            out.to_coo().to_dense(), dense_ttv(dense3, v, mode), rtol=1e-6
        )

    def test_4th_order(self, coo4, dense4):
        h = HiCOOTensor.from_coo(coo4.astype(np.float64), 4)
        v = vec_for(coo4.shape, 3, seed=9)
        out = hicoo_ttv(h, v, 3)
        np.testing.assert_allclose(
            out.to_coo().to_dense(), dense_ttv(dense4, v, 3), rtol=1e-6
        )

    def test_output_is_blocked(self, hicoo3):
        v = np.ones(hicoo3.shape[2], dtype=np.float64)
        out = hicoo_ttv(hicoo3, v, 2)
        assert out.nblocks >= 1
        assert out.nmodes == 2


class TestGhicooTtv:
    def test_requires_uncompressed_product_mode(self, coo3):
        g = GHiCOOTensor.from_coo(coo3, 8, (0, 1, 2))
        with pytest.raises(ShapeError):
            ghicoo_ttv(g, np.ones(coo3.shape[2]), 2)

    def test_matches_coo(self, coo3, dense3):
        g = GHiCOOTensor.from_coo(coo3.astype(np.float64), 8, (0, 1))
        v = vec_for(coo3.shape, 2, seed=5)
        out = ghicoo_ttv(g, v, 2)
        np.testing.assert_allclose(
            out.to_coo().to_dense(), dense_ttv(dense3, v, 2), rtol=1e-6
        )

    def test_empty(self):
        g = GHiCOOTensor.from_coo(COOTensor.empty((8, 8, 8)), 4, (0, 1))
        out = ghicoo_ttv(g, np.ones(8), 2)
        assert out.nnz == 0


class TestTtvParallel:
    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_schedules_match_sequential(self, monkeypatch, coo3, schedule):
        x = coo3.astype(np.float64)
        v = vec_for(x.shape, 1, seed=2)
        ref = coo_ttv(x, v, 1)
        be = OpenMPBackend(nthreads=4, default_chunk=16)
        try:
            got = coo_ttv(x, v, 1, backend=under_schedule(monkeypatch, be, schedule))
            assert np.array_equal(got.values, ref.values)
        finally:
            be.shutdown()

    def test_chunked_sequential_matches(self, monkeypatch, coo3):
        x = coo3.astype(np.float64)
        v = vec_for(x.shape, 0, seed=3)
        ref = coo_ttv(x, v, 0)
        be = SequentialBackend()
        # The threaded runs' chunked code path, executed serially.
        monkeypatch.setattr(
            be, "parallel_for", functools.partial(be.parallel_for, chunk=7)
        )
        got = coo_ttv(x, v, 0, backend=be)
        assert np.array_equal(got.values, ref.values)

    def test_dispatcher(self, coo3, hicoo3):
        v = vec_for(coo3.shape, 2, seed=4)
        a = ttv(coo3, v, 2)
        b = ttv(hicoo3, v, 2)
        np.testing.assert_allclose(
            b.to_coo().to_dense(), a.to_dense(), rtol=1e-5
        )


class TestOrderOneRejected:
    """Every fiber kernel refuses an order-1 tensor with one error, before
    any format conversion."""

    @pytest.mark.parametrize("kernel", ["coo_ttv", "hicoo_ttv", "coo_ttm", "hicoo_ttm"])
    def test_same_shape_error(self, kernel):
        x = COOTensor((5,), np.array([[1], [3]]), np.array([1.0, 2.0]))
        call = {
            "coo_ttv": lambda: coo_ttv(x, np.ones(5), 0),
            "hicoo_ttv": lambda: hicoo_ttv(HiCOOTensor.from_coo(x, 4), np.ones(5), 0),
            "coo_ttm": lambda: coo_ttm(x, np.ones((5, 2)), 0),
            "hicoo_ttm": lambda: hicoo_ttm(HiCOOTensor.from_coo(x, 4), np.ones((5, 2)), 0),
        }[kernel]
        with pytest.raises(ShapeError, match="order >= 2"):
            call()
