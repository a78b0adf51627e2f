"""Tests for the COO tensor format."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels.plans import fiber_lengths, fiber_plan
from repro.sptensor import COOTensor, stack_entries


class TestConstruction:
    def test_basic(self):
        t = stack_entries((3, 4), [((0, 1), 2.0), ((2, 3), -1.0)])
        assert t.shape == (3, 4)
        assert t.nnz == 2
        assert t.nmodes == 2

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ShapeError):
            COOTensor((2, 2), np.array([[0, 2]]), np.array([1.0]))

    def test_negative_index_rejected(self):
        with pytest.raises(ShapeError):
            COOTensor((2, 2), np.array([[-1, 0]], dtype=np.int64), np.array([1.0]))

    def test_mismatched_values_rejected(self):
        with pytest.raises(ShapeError):
            COOTensor((2, 2), np.array([[0, 0]]), np.array([1.0, 2.0]))

    def test_wrong_index_width_rejected(self):
        with pytest.raises(ShapeError):
            COOTensor((2, 2, 2), np.array([[0, 0]]), np.array([1.0]))

    def test_empty(self):
        t = COOTensor.empty((5, 5, 5))
        assert t.nnz == 0
        assert t.to_dense().sum() == 0

    def test_integer_values_promoted_to_float(self):
        t = COOTensor((2, 2), np.array([[0, 0]]), np.array([3]))
        assert np.issubdtype(t.values.dtype, np.floating)

    def test_1d_tensor(self):
        t = COOTensor((10,), np.array([[2], [5]]), np.array([1.0, 2.0]))
        d = t.to_dense()
        assert d[2] == 1.0 and d[5] == 2.0


class TestDenseRoundtrip:
    def test_roundtrip(self, coo3):
        back = COOTensor.from_dense(coo3.to_dense())
        assert back.allclose(coo3)

    def test_from_dense_pattern(self):
        arr = np.zeros((3, 3))
        arr[1, 2] = 5.0
        t = COOTensor.from_dense(arr)
        assert t.nnz == 1
        assert t.values[0] == 5.0

    def test_duplicates_summed_in_dense(self):
        t = COOTensor((2, 2), np.array([[0, 0], [0, 0]]), np.array([1.0, 2.0]))
        assert t.to_dense()[0, 0] == 3.0


class TestRandom:
    def test_exact_nnz_and_distinct(self):
        t = COOTensor.random((30, 30, 30), nnz=500, rng=1)
        assert t.nnz == 500
        assert not t.has_duplicates()

    def test_determinism(self):
        a = COOTensor.random((10, 10), nnz=40, rng=3)
        b = COOTensor.random((10, 10), nnz=40, rng=3)
        assert a.allclose(b)

    def test_nnz_clamped_to_capacity(self):
        t = COOTensor.random((2, 2), nnz=100, rng=0)
        assert t.nnz == 4

    def test_values_nonzero(self):
        t = COOTensor.random((10, 10), nnz=50, rng=5)
        assert (np.abs(t.values) > 0).all()


class TestSortLinearize:
    def test_sort_rowmajor(self, coo3):
        coo3.sort()
        lin = coo3.linearize()
        assert (np.diff(lin) >= 0).all()
        assert coo3.sort_order == (0, 1, 2)

    def test_sort_custom_order(self, coo3):
        coo3.sort((2, 0, 1))
        lin = coo3.linearize((2, 0, 1))
        assert (np.diff(lin) >= 0).all()

    def test_sort_is_cached(self, coo3):
        coo3.sort()
        inds_before = coo3.indices
        coo3.sort()  # second call is a no-op
        assert coo3.indices is inds_before

    def test_sort_preserves_tensor(self, coo3):
        d = coo3.to_dense()
        coo3.sort((1, 2, 0))
        np.testing.assert_allclose(coo3.to_dense(), d)

    def test_linearize_invalid_order(self, coo3):
        with pytest.raises(ShapeError):
            coo3.linearize((0, 0, 1))


class TestCoalesce:
    def test_sums_duplicates(self):
        t = COOTensor(
            (3, 3),
            np.array([[1, 1], [0, 0], [1, 1]]),
            np.array([2.0, 1.0, 3.0]),
        )
        c = t.coalesce()
        assert c.nnz == 2
        np.testing.assert_allclose(c.to_dense(), t.to_dense())

    def test_sorted_output(self):
        t = COOTensor(
            (4, 4), np.array([[3, 0], [0, 1], [2, 2]]), np.array([1.0, 2.0, 3.0])
        )
        c = t.coalesce()
        assert (np.diff(c.linearize()) > 0).all()

    def test_empty(self):
        c = COOTensor.empty((2, 2)).coalesce()
        assert c.nnz == 0


class TestFiberIndex:
    """The COO fiber plan and fiber lengths (``repro.kernels.plans``)."""

    def test_counts_match_dense(self, coo3, dense3):
        for mode in range(3):
            plan = fiber_plan(coo3, mode)
            # count non-empty fibers from the dense array
            moved = np.moveaxis(dense3, mode, -1)
            dense_fibers = int((np.abs(moved).sum(axis=-1) > 0).sum())
            assert plan.nfibers == dense_fibers

    def test_fiber_lengths_sum_to_nnz(self, coo4):
        for mode in range(4):
            assert fiber_lengths(coo4, mode).sum() == coo4.nnz

    def test_fibers_share_other_coords(self, coo3):
        plan = fiber_plan(coo3, 1)
        inds = coo3.indices[plan.perm]
        fptr = plan.fibers.fptr
        for f in range(min(plan.nfibers, 20)):
            seg = inds[fptr[f]:fptr[f + 1]]
            assert (seg[:, 0] == seg[0, 0]).all()
            assert (seg[:, 2] == seg[0, 2]).all()

    def test_empty_tensor(self):
        plan = fiber_plan(COOTensor.empty((3, 3)), 0)
        assert plan.nfibers == 0


class TestComparison:
    def test_pattern_equals_ignores_order(self, coo3):
        shuffled = coo3.copy()
        perm = np.random.default_rng(0).permutation(coo3.nnz)
        shuffled.indices = shuffled.indices[perm]
        shuffled.values = shuffled.values[perm]
        shuffled._sort_order = None
        assert coo3.pattern_equals(shuffled)

    def test_allclose_detects_value_change(self, coo3):
        other = coo3.copy()
        other.values = other.values.copy()
        other.values[0] += 1.0
        assert not coo3.allclose(other)

    def test_allclose_drops_explicit_zeros(self):
        a = COOTensor((2, 2), np.array([[0, 0], [1, 1]]), np.array([1.0, 0.0]))
        b = COOTensor((2, 2), np.array([[0, 0]]), np.array([1.0]))
        assert a.allclose(b)

    def test_allclose_shape_mismatch(self, coo3):
        other = COOTensor.empty((1, 1, 1))
        assert not coo3.allclose(other)


class TestTransforms:
    def test_permute_modes(self, coo3, dense3):
        p = coo3.permute_modes((2, 0, 1))
        np.testing.assert_allclose(p.to_dense(), np.transpose(dense3, (2, 0, 1)))

    def test_astype(self, coo3):
        t64 = coo3.astype(np.float64)
        assert t64.values.dtype == np.float64
        np.testing.assert_allclose(t64.to_dense(), coo3.to_dense())

    def test_drop_zeros(self):
        t = COOTensor((2, 2), np.array([[0, 0], [1, 1]]), np.array([0.0, 2.0]))
        assert t.drop_zeros().nnz == 1


class TestStorage:
    def test_paper_byte_model(self, coo3):
        # 4(N+1)M bytes for order N with M nnz
        assert coo3.nbytes == 4 * (3 + 1) * coo3.nnz

    def test_density(self):
        t = COOTensor.random((10, 10, 10), nnz=100, rng=0)
        assert t.density == pytest.approx(0.1)
