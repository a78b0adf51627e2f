"""Tests for the semi-sparse formats sCOO and sHiCOO."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.kernels.plans import fiber_plan
from repro.sptensor import COOTensor, SemiCOOTensor, SemiHiCOOTensor


class TestSemiCOO:
    def test_dense_roundtrip(self, coo3, dense3):
        for dm in [(0,), (1,), (2,)]:
            sc = SemiCOOTensor.from_coo(coo3, dm)
            np.testing.assert_allclose(sc.to_dense(), dense3, rtol=1e-5)

    def test_coo_roundtrip(self, coo3):
        sc = SemiCOOTensor.from_coo(coo3, (1,))
        assert sc.to_coo().allclose(coo3)

    def test_two_dense_modes(self, coo4):
        sc = SemiCOOTensor.from_coo(coo4, (1, 3))
        np.testing.assert_allclose(sc.to_dense(), coo4.to_dense(), rtol=1e-5)

    def test_sparse_nnz_counts_fibers(self, coo3):
        sc = SemiCOOTensor.from_coo(coo3, (2,))
        assert sc.nnz_sparse == fiber_plan(coo3, 2).nfibers

    def test_total_nnz(self, coo3):
        sc = SemiCOOTensor.from_coo(coo3, (2,))
        assert sc.nnz == sc.nnz_sparse * coo3.shape[2]

    def test_dense_modes_validation(self, coo3):
        with pytest.raises(FormatError):
            SemiCOOTensor.from_coo(coo3, ())
        with pytest.raises(FormatError):
            SemiCOOTensor.from_coo(coo3, (0, 1, 2))  # nothing sparse left

    def test_bad_value_shape_rejected(self):
        with pytest.raises(ShapeError):
            SemiCOOTensor(
                (3, 4),
                (1,),
                np.array([[0]]),
                np.zeros((1, 5)),  # dense dim should be 4
            )

    def test_empty(self):
        sc = SemiCOOTensor.from_coo(COOTensor.empty((3, 4, 5)), (2,))
        assert sc.nnz_sparse == 0
        assert sc.to_coo().nnz == 0

    def test_storage_model(self, coo3):
        sc = SemiCOOTensor.from_coo(coo3, (2,))
        assert sc.nbytes == sc.nnz_sparse * 2 * 4 + sc.nnz * 4


class TestSemiHiCOO:
    def test_roundtrip_through_scoo(self, coo3, dense3):
        sc = SemiCOOTensor.from_coo(coo3, (2,))
        sh = SemiHiCOOTensor.from_scoo(sc, 8)
        np.testing.assert_allclose(sh.to_dense(), dense3, rtol=1e-5)
        assert sh.to_coo().allclose(coo3)

    def test_block_grouping(self, coo3):
        sc = SemiCOOTensor.from_coo(coo3, (2,))
        sh = SemiHiCOOTensor.from_scoo(sc, 8)
        assert sh.bptr[-1] == sh.nnz_sparse
        assert (np.diff(sh.bptr) >= 1).all()
        assert int(sh.einds.max(initial=0)) < 8

    def test_empty(self):
        sc = SemiCOOTensor.from_coo(COOTensor.empty((4, 4, 4)), (1,))
        sh = SemiHiCOOTensor.from_scoo(sc, 4)
        assert sh.nnz_sparse == 0
        assert sh.nblocks == 0

    def test_storage_smaller_than_scoo_when_clustered(self):
        rng = np.random.default_rng(3)
        inds = np.unique(rng.integers(0, 32, size=(2000, 3)), axis=0)
        t = COOTensor((10000, 10000, 8), inds % [10000, 10000, 8], rng.random(len(inds)))
        t = t.coalesce()
        sc = SemiCOOTensor.from_coo(t, (2,))
        sh = SemiHiCOOTensor.from_scoo(sc, 32)
        # index storage shrinks; value storage identical
        assert sh.nbytes <= sc.nbytes

    def test_block_size_validated(self, coo3):
        sc = SemiCOOTensor.from_coo(coo3, (2,))
        with pytest.raises(FormatError):
            SemiHiCOOTensor.from_scoo(sc, 100)
