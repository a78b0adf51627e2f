"""Tests for the tensor methods (CP-ALS, power method, Tucker/TTM-chain)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.methods import (
    cp_als,
    symmetric_rank1_tensor,
    tensor_power_method,
    ttm_chain,
    ttv_collapse,
    tucker_hooi,
)
from repro.sptensor import COOTensor, HiCOOTensor
from repro.sptensor.dense import outer


def sparse_lowrank(shape, rank, seed=0, fill=0.3):
    rng = np.random.default_rng(seed)
    factors = []
    for s in shape:
        f = np.abs(rng.random((s, rank))) + 0.1
        f[rng.random((s, rank)) > fill] = 0.0
        factors.append(f)
    dense = np.zeros(shape)
    for r in range(rank):
        dense += outer([f[:, r] for f in factors])
    return COOTensor.from_dense(dense), factors


class TestCpAls:
    def test_recovers_planted_rank(self):
        x, _ = sparse_lowrank((25, 20, 15), 3, seed=1)
        res = cp_als(x, rank=3, n_iters=80, seed=2)
        assert res.fits[-1] > 0.98

    def test_fit_monotone_enough(self):
        x, _ = sparse_lowrank((20, 20, 20), 3, seed=3)
        res = cp_als(x, rank=4, n_iters=30, seed=4)
        # ALS fit is monotonically non-decreasing (tiny fp slack)
        fits = np.array(res.fits)
        assert (np.diff(fits) > -1e-8).all()

    def test_hicoo_matches_coo_trajectory(self):
        x, _ = sparse_lowrank((20, 18, 16), 2, seed=5)
        h = HiCOOTensor.from_coo(x, 8)
        a = cp_als(x, rank=3, n_iters=10, seed=6)
        b = cp_als(h, rank=3, n_iters=10, seed=6)
        np.testing.assert_allclose(a.fits, b.fits, rtol=1e-8)

    def test_reconstruction_error(self):
        x, _ = sparse_lowrank((15, 12, 10), 2, seed=7)
        res = cp_als(x, rank=2, n_iters=120, seed=8, tol=1e-12)
        dense = x.to_dense()
        approx = res.to_dense()
        rel = np.linalg.norm(approx - dense) / np.linalg.norm(dense)
        assert rel < 0.1

    def test_norm_identity(self):
        x, _ = sparse_lowrank((10, 10, 10), 2, seed=9)
        res = cp_als(x, rank=2, n_iters=50, seed=10)
        assert res.norm() == pytest.approx(
            np.linalg.norm(res.to_dense()), rel=1e-6
        )

    @pytest.mark.parametrize("fmt", ["coo", "hicoo"])
    def test_fit_from_kept_grams_is_bit_identical(self, monkeypatch, fmt):
        """The fit reads ``||K||`` from the Grams ``cp_als`` keeps; recomputing
        them from the factors (the former ``norm()``) gives the same bits."""
        from repro.generate import powerlaw_tensor
        from repro.methods.cpd import CPResult

        x = powerlaw_tensor((300, 250, 20), 4000, dense_modes=(2,), seed=4)
        if fmt == "hicoo":
            x = HiCOOTensor.from_coo(x)
        kept = cp_als(x, rank=5, n_iters=6, tol=0, seed=1)
        recompute = CPResult.norm
        monkeypatch.setattr(CPResult, "norm", lambda self, grams=None: recompute(self))
        fresh = cp_als(x, rank=5, n_iters=6, tol=0, seed=1)
        assert kept.fits == fresh.fits
        np.testing.assert_array_equal(kept.weights, fresh.weights, strict=True)
        for a, b in zip(kept.factors, fresh.factors):
            np.testing.assert_array_equal(a, b, strict=True)

    def test_init_factors(self):
        x, facs = sparse_lowrank((12, 11, 10), 2, seed=11)
        res = cp_als(x, rank=2, n_iters=30, init_factors=facs)
        assert res.fits[-1] > 0.99

    def test_invalid_args(self):
        x, _ = sparse_lowrank((8, 8, 8), 2, seed=12)
        with pytest.raises(ShapeError):
            cp_als(x, rank=0)
        with pytest.raises(ShapeError):
            cp_als(x, rank=2, init_factors=[np.ones((8, 3))] * 3)

    def test_4th_order(self):
        x, _ = sparse_lowrank((8, 8, 8, 8), 2, seed=13, fill=0.4)
        res = cp_als(x, rank=3, n_iters=60, seed=14)
        assert res.fits[-1] > 0.9


class TestPowerMethod:
    @pytest.fixture(scope="class")
    def planted(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((25, 3)))
        w = np.array([7.0, 4.0, 2.0])
        return symmetric_rank1_tensor(w, q), w, q

    def test_symmetric_builder(self, planted):
        t, w, q = planted
        d = t.to_dense()
        np.testing.assert_allclose(d, np.transpose(d, (1, 0, 2)), atol=1e-8)

    def test_collapse_matches_dense(self, planted):
        t, _, q = planted
        v = q[:, 0]
        got = ttv_collapse(t, v)
        want = np.einsum("ijk,j,k->i", t.to_dense(), v, v)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_recovers_components(self, planted):
        t, w, q = planted
        res = tensor_power_method(t, n_components=3, n_restarts=5, seed=1)
        np.testing.assert_allclose(res.eigenvalues, w, rtol=1e-3)
        for i in range(3):
            assert abs(res.eigenvectors[i] @ q[:, i]) > 0.999

    def test_requires_cubical_3rd_order(self):
        t = COOTensor.random((5, 6, 7), nnz=20, rng=0)
        with pytest.raises(ShapeError):
            tensor_power_method(t)


class TestTtmChainTucker:
    def test_chain_matches_dense(self):
        x = COOTensor.random((12, 10, 8), nnz=200, rng=1).astype(np.float64)
        rng = np.random.default_rng(2)
        mats = [rng.random((12, 3)), rng.random((8, 2))]
        got = ttm_chain(x, mats, [0, 2]).to_dense()
        want = x.to_dense()
        want = np.moveaxis(np.tensordot(want, mats[0], axes=([0], [0])), -1, 0)
        want = np.moveaxis(np.tensordot(want, mats[1], axes=([2], [0])), -1, 2)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_chain_validation(self):
        x = COOTensor.random((5, 5, 5), nnz=10, rng=0)
        with pytest.raises(ShapeError):
            ttm_chain(x, [np.ones((5, 2))], [0, 1])
        with pytest.raises(ShapeError):
            ttm_chain(x, [np.ones((5, 2))] * 2, [0, 0])

    def test_hooi_exact_recovery(self):
        rng = np.random.default_rng(3)
        core = rng.standard_normal((3, 2, 2))
        dense = core
        for mode, (s, r) in enumerate(zip((15, 12, 10), (3, 2, 2))):
            u = rng.standard_normal((s, r))
            u[rng.random((s, r)) > 0.4] = 0.0
            dense = np.moveaxis(
                np.tensordot(dense, u, axes=([mode], [1])), -1, mode
            )
        x = COOTensor.from_dense(dense)
        res = tucker_hooi(x, (3, 2, 2), n_iters=8, seed=4)
        assert res.fits[-1] > 0.999
        assert res.core.shape == (3, 2, 2)
        # factors orthonormal
        for u in res.factors:
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-8)

    def test_hooi_rank_validation(self):
        x = COOTensor.random((6, 6, 6), nnz=30, rng=5)
        with pytest.raises(ShapeError):
            tucker_hooi(x, (7, 2, 2))
        with pytest.raises(ShapeError):
            tucker_hooi(x, (2, 2))
