"""Property-based tests for the extension kernels and subsystems."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    coo_ttv,
    csf_mttkrp,
    csf_ttv,
    coo_mttkrp,
    sparse_contract,
    sparse_inner,
)
from repro.kernels.plans import fiber_lengths
from repro.sptensor import COOTensor, CSFTensor
from repro.sptensor.bcsf import BCSFTensor, bcsf_mttkrp
from repro.sptensor.reorder import apply_permutations, random_reorder
from repro.stream import StreamingTensorBuilder
from tests.test_property_based import sparse_tensors


class TestContractionProperties:
    @given(sparse_tensors(max_order=3, max_dim=10), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_tensordot(self, x, data):
        mode = data.draw(st.integers(0, x.nmodes - 1))
        seed = data.draw(st.integers(0, 100))
        other_dim = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(seed)
        nnz_y = data.draw(st.integers(0, 12))
        y = COOTensor.random((x.shape[mode], other_dim), nnz=nnz_y, rng=rng)
        y = y.astype(np.float64)
        z = sparse_contract(x, y, [mode], [0])
        want = np.tensordot(x.to_dense(), y.to_dense(), axes=([mode], [0]))
        np.testing.assert_allclose(z.to_dense(), want, rtol=1e-9, atol=1e-11)

    @given(sparse_tensors(max_order=3, max_dim=8), st.data())
    @settings(max_examples=25, deadline=None)
    def test_bilinearity(self, x, data):
        """contract(a*X, Y) == a*contract(X, Y)."""
        seed = data.draw(st.integers(0, 100))
        y = COOTensor.random((x.shape[-1], 4), nnz=10, rng=seed).astype(np.float64)
        a = 3.5
        xs = COOTensor(x.shape, x.indices, x.values * a, check=False)
        left = sparse_contract(xs, y, [x.nmodes - 1], [0]).to_dense()
        right = a * sparse_contract(x, y, [x.nmodes - 1], [0]).to_dense()
        np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-11)

    @given(sparse_tensors(max_order=3, max_dim=8), st.data())
    @settings(max_examples=25, deadline=None)
    def test_inner_symmetry(self, x, data):
        seed = data.draw(st.integers(0, 100))
        y = COOTensor.random(x.shape, nnz=min(20, x.nnz + 5), rng=seed).astype(
            np.float64
        )
        assert sparse_inner(x, y) == sparse_inner(y, x)

    @given(sparse_tensors(max_order=3))
    @settings(max_examples=25, deadline=None)
    def test_inner_self_nonnegative(self, x):
        assert sparse_inner(x, x) >= 0.0


class TestCsfBcsfProperties:
    @given(sparse_tensors(max_order=4, max_dim=10), st.data())
    @settings(max_examples=25, deadline=None)
    def test_csf_ttv_matches_coo(self, t, data):
        mode = data.draw(st.integers(0, t.nmodes - 1))
        v = np.random.default_rng(1).uniform(-1, 1, t.shape[mode])
        if t.nmodes < 2:
            return
        c = CSFTensor.from_coo(t)
        got = csf_ttv(c, v, mode).to_coo().to_dense()
        want = coo_ttv(t, v, mode).to_dense()
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    @given(sparse_tensors(max_order=3, max_dim=10), st.data())
    @settings(max_examples=25, deadline=None)
    def test_bcsf_mttkrp_cap_invariant(self, t, data):
        mode = data.draw(st.integers(0, t.nmodes - 1))
        cap = data.draw(st.sampled_from([1, 4, 64, 10**6]))
        rng = np.random.default_rng(2)
        mats = [rng.uniform(-1, 1, (s, 3)) for s in t.shape]
        want = coo_mttkrp(t, mats, mode)
        b = BCSFTensor.from_coo(t, max_nnz_per_vroot=cap)
        np.testing.assert_allclose(
            bcsf_mttkrp(b, mats, mode), want, rtol=1e-9, atol=1e-11
        )
        assert b.vroot_nnz().sum() == t.nnz

    @given(sparse_tensors(max_order=3, max_dim=10), st.data())
    @settings(max_examples=25, deadline=None)
    def test_csf_mttkrp_matches_coo(self, t, data):
        mode = data.draw(st.integers(0, t.nmodes - 1))
        rng = np.random.default_rng(3)
        mats = [rng.uniform(-1, 1, (s, 2)) for s in t.shape]
        c = CSFTensor.from_coo(t)
        np.testing.assert_allclose(
            csf_mttkrp(c, mats, mode),
            coo_mttkrp(t, mats, mode),
            rtol=1e-9,
            atol=1e-11,
        )


class TestReorderProperties:
    @given(sparse_tensors(max_order=3), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_reorder_preserves_multiset(self, t, seed):
        out, perms = random_reorder(t, seed=seed)
        assert out.nnz == t.nnz
        np.testing.assert_allclose(
            np.sort(out.values), np.sort(t.values)
        )
        # inverse permutations restore the tensor
        inv = {
            m: np.argsort(p) for m, p in perms.items()
        }
        assert apply_permutations(out, inv).allclose(t)

    @given(sparse_tensors(max_order=3), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_reorder_preserves_fiber_multiset(self, t, seed):
        """Relabeling permutes fibers but not their length distribution."""
        out, _ = random_reorder(t, seed=seed)
        for mode in range(t.nmodes):
            a = np.sort(fiber_lengths(t, mode))
            b = np.sort(fiber_lengths(out, mode))
            np.testing.assert_array_equal(a, b)


class TestStreamProperties:
    @given(
        st.integers(1, 6),
        st.integers(1, 200),
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_batching_invariance(self, nbatches, per_batch, seed):
        """Any batching of the same events accumulates the same tensor."""
        rng = np.random.default_rng(seed)
        total = nbatches * per_batch
        coords = rng.integers(0, [12, 11, 4], size=(total, 3))
        values = rng.random(total)
        one = StreamingTensorBuilder((12, 11, 4))
        one.push(coords, values)
        many = StreamingTensorBuilder((12, 11, 4), merge_threshold=7)
        for b in range(nbatches):
            sl = slice(b * per_batch, (b + 1) * per_batch)
            many.push(coords[sl], values[sl])
        assert one.finish().allclose(many.finish(), rtol=1e-5, atol=1e-6)
