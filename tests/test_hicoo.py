"""Tests for the HiCOO format."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.sptensor import COOTensor, HiCOOTensor
from repro.sptensor.hicoo import _hicoo_sort_order
from repro.util.morton import morton_encode


class TestRoundtrip:
    @pytest.mark.parametrize("block_size", [1, 2, 4, 8, 128, 256])
    def test_coo_roundtrip(self, coo3, block_size):
        h = HiCOOTensor.from_coo(coo3, block_size)
        assert h.to_coo().allclose(coo3)

    def test_4th_order_roundtrip(self, coo4):
        h = HiCOOTensor.from_coo(coo4, 4)
        assert h.to_coo().allclose(coo4)

    def test_empty(self):
        h = HiCOOTensor.from_coo(COOTensor.empty((5, 5)), 4)
        assert h.nnz == 0
        assert h.nblocks == 0
        assert h.to_coo().nnz == 0

    def test_single_entry(self):
        t = COOTensor((300, 300), np.array([[257, 129]]), np.array([7.0]))
        h = HiCOOTensor.from_coo(t, 128)
        assert h.nblocks == 1
        np.testing.assert_array_equal(h.binds[0], [2, 1])
        np.testing.assert_array_equal(h.einds[0], [1, 1])
        assert h.to_coo().allclose(t)


class TestStructure:
    def test_block_sizes_validated(self, coo3):
        with pytest.raises(FormatError):
            HiCOOTensor.from_coo(coo3, 100)  # not a power of two
        with pytest.raises(FormatError):
            HiCOOTensor.from_coo(coo3, 512)  # exceeds 8-bit element index

    def test_einds_within_block(self, hicoo3):
        assert int(hicoo3.einds.max()) < hicoo3.block_size

    def test_bptr_partitions_entries(self, hicoo3):
        assert hicoo3.bptr[0] == 0
        assert hicoo3.bptr[-1] == hicoo3.nnz
        assert (np.diff(hicoo3.bptr) >= 1).all()  # no empty blocks

    def test_blocks_in_morton_order(self, hicoo3):
        codes = morton_encode(hicoo3.binds.astype(np.uint64))
        assert (np.diff(codes.astype(np.int64)) > 0).all()  # strictly: unique blocks

    def test_entries_grouped_by_block(self, hicoo3):
        """Every entry's reconstructed block coordinate matches its block."""
        bid = hicoo3.entry_block_ids()
        ginds = hicoo3.global_indices()
        blocks = ginds // hicoo3.block_size
        np.testing.assert_array_equal(blocks, hicoo3.binds[bid].astype(np.int64))

    def test_nnz_per_block_sums(self, hicoo3):
        assert hicoo3.nnz_per_block().sum() == hicoo3.nnz

    @pytest.mark.parametrize("bbits", [
        8,   # one packed (morton << 24) | ekey key
        14,  # 42-bit Morton codes: no room for the element key, lexsort
        30,  # past 64-bit Morton codes: row-major lexsort
    ])
    def test_sort_order_is_the_stable_lexsort(self, bbits):
        rng = np.random.default_rng(bbits)
        # Few distinct coordinates, so ties (duplicate entries) abound.
        bc = rng.integers(0, 2**bbits, (40, 3))[rng.integers(0, 40, 3000)]
        ec = rng.integers(0, 2, (3000, 3)).astype(np.uint8)
        ekey = (ec[:, 0].astype(np.int64) * 256 + ec[:, 1]) * 256 + ec[:, 2]
        if 3 * bbits <= 64:
            want = np.lexsort((ekey, morton_encode(bc)))
        else:
            want = np.lexsort((ekey, bc[:, 2], bc[:, 1], bc[:, 0]))
        np.testing.assert_array_equal(_hicoo_sort_order(bc, ec), want)


class TestStorageModel:
    def test_paper_bytes_formula(self, hicoo3):
        n = hicoo3.nmodes
        expected = hicoo3.nblocks * (8 + 4 * n) + hicoo3.nnz * (n + 4)
        assert hicoo3.nbytes == expected

    def test_compression_wins_on_clustered_tensor(self):
        """A dense-ish cluster compresses well under HiCOO (paper claim)."""
        rng = np.random.default_rng(0)
        # entries concentrated in a 64^3 corner of a large tensor
        inds = rng.integers(0, 64, size=(5000, 3))
        inds = np.unique(inds, axis=0)
        t = COOTensor((100000, 100000, 100000), inds, rng.random(len(inds)))
        h = HiCOOTensor.from_coo(t, 128)
        assert h.compression_ratio() > 1.5

    def test_hypersparse_tensor_compresses_poorly(self):
        """One nnz per block: HiCOO overhead exceeds COO (motivates gHiCOO)."""
        t = COOTensor.random((2**20, 2**20, 2**20), nnz=2000, rng=1)
        h = HiCOOTensor.from_coo(t, 128)
        assert h.nnz_per_block().mean() < 1.5
        assert h.compression_ratio() < 1.0


class TestValidation:
    def test_inconsistent_bptr_rejected(self, coo3):
        h = HiCOOTensor.from_coo(coo3, 8)
        bad = h.bptr.copy()
        bad[-1] += 1
        with pytest.raises(Exception):
            HiCOOTensor(h.shape, 8, bad, h.binds, h.einds, h.values)

    def test_eind_overflow_rejected(self, coo3):
        h = HiCOOTensor.from_coo(coo3, 8)
        bad = h.einds.copy()
        bad[0, 0] = 9
        with pytest.raises(Exception):
            HiCOOTensor(h.shape, 8, h.bptr, h.binds, bad, h.values)
