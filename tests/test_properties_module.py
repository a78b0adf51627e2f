"""Tests for sptensor.properties (fiber/block/tensor statistics)."""

import numpy as np
import pytest

from repro.kernels.plans import fiber_plan
from repro.sptensor import (
    COOTensor,
    HiCOOTensor,
    block_stats,
    fiber_stats,
    mode_fill,
    nnz_per_slice,
    summarize,
)


class TestFiberStats:
    def test_lengths_consistent(self, coo3):
        st = fiber_stats(coo3, 0)
        assert st.nfibers == fiber_plan(coo3, 0).nfibers
        assert st.min_len >= 1
        assert st.max_len >= st.min_len
        assert st.mean_len * st.nfibers == pytest.approx(coo3.nnz)

    def test_imbalance_ge_one(self, coo3):
        for m in range(3):
            assert fiber_stats(coo3, m).imbalance >= 1.0

    def test_empty(self):
        st = fiber_stats(COOTensor.empty((3, 3)), 0)
        assert st.nfibers == 0
        assert st.imbalance == 1.0

    def test_skewed_tensor_detected(self):
        """One long fiber among singletons has high imbalance."""
        inds = [[0, 0, k] for k in range(50)] + [[i, 1, 0] for i in range(1, 10)]
        t = COOTensor((10, 2, 50), np.array(inds), np.ones(59))
        st = fiber_stats(t, 2)
        assert st.max_len == 50
        assert st.imbalance > 5


class TestBlockStats:
    def test_consistent(self, hicoo3):
        st = block_stats(hicoo3)
        assert st.nblocks == hicoo3.nblocks
        assert st.mean_nnz * st.nblocks == pytest.approx(hicoo3.nnz)
        assert st.alpha == st.mean_nnz

    def test_empty(self):
        h = HiCOOTensor.from_coo(COOTensor.empty((4, 4)), 4)
        st = block_stats(h)
        assert st.nblocks == 0
        assert st.imbalance == 1.0


class TestSummary:
    def test_summarize(self, coo3):
        s = summarize(coo3, "demo")
        assert s.name == "demo"
        assert s.order == 3
        assert s.nnz == coo3.nnz
        assert len(s.fibers_per_mode) == 3
        assert s.density == pytest.approx(coo3.density)
        assert s.avg_fibers > 0
        assert s.max_fiber_imbalance >= 1.0


class TestSliceHistogram:
    def test_counts_sum_to_nnz(self, coo3):
        for m in range(3):
            counts = nnz_per_slice(coo3, m)
            assert counts.sum() == coo3.nnz
            assert len(counts) == coo3.shape[m]

    def test_mode_fill_bounds(self, coo3):
        for m in range(3):
            f = mode_fill(coo3, m)
            assert 0 < f <= 1.0

    def test_dense_short_mode_fill_is_one(self):
        t = COOTensor.random((1000, 4), nnz=900, rng=0)
        assert mode_fill(t, 1) == 1.0
