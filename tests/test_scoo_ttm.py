"""Tests for the semi-sparse Ttm kernel and TTM-chain."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.kernels import coo_ttm, scoo_ttm, scoo_ttm_chain
from repro.methods import ttm_chain
from repro.sptensor import COOTensor, SemiCOOTensor


def dense_ttm_at(d, u, mode):
    return np.moveaxis(np.tensordot(d, u, axes=([mode], [0])), -1, mode)


@pytest.fixture(scope="module")
def x4():
    return COOTensor.random((12, 10, 9, 8), nnz=400, rng=2).astype(np.float64)


@pytest.fixture(scope="module")
def mats(x4):
    rng = np.random.default_rng(0)
    return {m: rng.random((s, m + 2)) for m, s in enumerate(x4.shape)}


class TestScooTtm:
    def test_second_contraction_matches_dense(self, x4, mats):
        d = x4.to_dense()
        semi = coo_ttm(x4, mats[1], 1)
        out = scoo_ttm(semi, mats[3], 3)
        want = dense_ttm_at(dense_ttm_at(d, mats[1], 1), mats[3], 3)
        np.testing.assert_allclose(out.to_dense(), want, rtol=1e-9)

    def test_dense_mode_ordering(self, x4, mats):
        """Contracting a mode *before* the existing dense mode must slot
        the new axis correctly."""
        d = x4.to_dense()
        semi = coo_ttm(x4, mats[2], 2)
        out = scoo_ttm(semi, mats[0], 0)
        assert out.dense_modes == (0, 2)
        want = dense_ttm_at(dense_ttm_at(d, mats[2], 2), mats[0], 0)
        np.testing.assert_allclose(out.to_dense(), want, rtol=1e-9)

    def test_counts_kernel_work(self, registry, x4, mats):
        semi = coo_ttm(x4, mats[1], 1)
        before = registry.counter_totals("kernel.")
        scoo_ttm(semi, mats[3], 3)
        after = registry.counter_totals("kernel.")
        m, d, r = semi.nnz_sparse, semi.values[0].size, mats[3].shape[1]
        assert after["kernel.nnz_processed"] - before["kernel.nnz_processed"] == m
        assert after["kernel.flops"] - before["kernel.flops"] == 2.0 * m * d * r

    def test_already_dense_mode_rejected(self, x4, mats):
        semi = coo_ttm(x4, mats[1], 1)
        with pytest.raises(FormatError):
            scoo_ttm(semi, mats[1], 1)

    def test_last_sparse_mode_rejected(self):
        x = COOTensor.random((6, 5), nnz=15, rng=1).astype(np.float64)
        semi = coo_ttm(x, np.ones((5, 2)), 1)
        with pytest.raises(FormatError):
            scoo_ttm(semi, np.ones((6, 2)), 0)

    def test_bad_matrix(self, x4, mats):
        semi = coo_ttm(x4, mats[1], 1)
        with pytest.raises(ShapeError):
            scoo_ttm(semi, np.ones((99, 2)), 0)

    def test_sparse_structure_shrinks(self, x4, mats):
        semi1 = coo_ttm(x4, mats[1], 1)
        semi2 = scoo_ttm(semi1, mats[3], 3)
        assert len(semi2.sparse_modes) == 2
        assert semi2.nnz_sparse <= semi1.nnz_sparse


class TestScooChain:
    def test_matches_expanding_chain(self, x4, mats):
        order = [1, 3, 0]
        ms = [mats[m] for m in order]
        fast = scoo_ttm_chain(x4, ms, order)
        slow = ttm_chain(x4, ms, order)
        np.testing.assert_allclose(
            fast.to_dense(), slow.to_dense(), rtol=1e-9
        )

    def test_single_step(self, x4, mats):
        out = scoo_ttm_chain(x4, [mats[2]], [2])
        assert isinstance(out, SemiCOOTensor)
        np.testing.assert_allclose(
            out.to_dense(), dense_ttm_at(x4.to_dense(), mats[2], 2), rtol=1e-9
        )

    def test_all_modes_rejected(self, x4, mats):
        with pytest.raises(ShapeError):
            scoo_ttm_chain(x4, [mats[m] for m in range(4)], [0, 1, 2, 3])

    def test_duplicate_modes_rejected(self, x4, mats):
        with pytest.raises(ShapeError):
            scoo_ttm_chain(x4, [mats[1], mats[1]], [1, 1])

    def test_mismatched_lengths(self, x4, mats):
        with pytest.raises(ShapeError):
            scoo_ttm_chain(x4, [mats[1]], [1, 2])
