"""Tests for tensor I/O (.tns text and .npz binary)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sptensor import (
    COOTensor,
    CSFTensor,
    HiCOOTensor,
    load_csf_npz,
    load_hicoo_npz,
    load_npz,
    read_tns,
    save_csf_npz,
    save_hicoo_npz,
    save_npz,
    tns_dumps,
    write_tns,
)


class TestTns:
    def test_roundtrip(self, coo3, tmp_path):
        p = tmp_path / "t.tns"
        write_tns(coo3, p)
        back = read_tns(p)
        assert back.shape == coo3.shape
        assert back.allclose(coo3, rtol=1e-4, atol=1e-5)

    def test_one_based_indices(self, tmp_path):
        t = COOTensor((2, 2), np.array([[0, 0]]), np.array([1.5]))
        p = tmp_path / "t.tns"
        write_tns(t, p)
        body = [
            line for line in p.read_text().splitlines() if not line.startswith("#")
        ]
        assert body == ["1 1 1.5"]

    def test_shape_header_recovered(self, coo3, tmp_path):
        """Without the header the trailing empty slices would be lost."""
        p = tmp_path / "t.tns"
        write_tns(coo3, p)
        assert read_tns(p).shape == coo3.shape

    def test_shape_inference_without_header(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("2 3 1.0\n4 1 2.0\n")
        t = read_tns(p)
        assert t.shape == (4, 3)
        assert t.nnz == 2

    def test_explicit_shape_wins(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("1 1 5.0\n")
        t = read_tns(p, shape=(10, 10))
        assert t.shape == (10, 10)

    def test_zero_index_rejected(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("0 1 5.0\n")
        with pytest.raises(ShapeError):
            read_tns(p)

    def test_shape_mode_mismatch(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("1 1 1 5.0\n")
        with pytest.raises(ShapeError):
            read_tns(p, shape=(5, 5))

    def test_empty_file_needs_shape(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("")
        with pytest.raises(ShapeError):
            read_tns(p)
        assert read_tns(p, shape=(3, 3)).nnz == 0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("# a comment\n\n1 2 3.0\n")
        assert read_tns(p).nnz == 1

    def test_dumps_matches_file(self, coo3, tmp_path):
        p = tmp_path / "t.tns"
        write_tns(coo3, p)
        assert p.read_text() == tns_dumps(coo3)


class TestFormatCaches:
    def test_hicoo_roundtrip(self, coo3, tmp_path):
        h = HiCOOTensor.from_coo(coo3, 8)
        p = tmp_path / "h.npz"
        save_hicoo_npz(h, p)
        back = load_hicoo_npz(p)
        assert back.block_size == 8
        np.testing.assert_array_equal(back.bptr, h.bptr)
        np.testing.assert_array_equal(back.binds, h.binds)
        np.testing.assert_array_equal(back.einds, h.einds)
        assert back.to_coo().allclose(coo3, rtol=1e-5, atol=1e-6)

    def test_csf_roundtrip(self, coo4, tmp_path):
        c = CSFTensor.from_coo(coo4, (2, 0, 3, 1))
        p = tmp_path / "c.npz"
        save_csf_npz(c, p)
        back = load_csf_npz(p)
        assert back.mode_order == (2, 0, 3, 1)
        assert back.to_coo().allclose(coo4, rtol=1e-5, atol=1e-6)

    def test_kind_mismatch_rejected(self, coo3, tmp_path):
        h = HiCOOTensor.from_coo(coo3, 8)
        p = tmp_path / "h.npz"
        save_hicoo_npz(h, p)
        with pytest.raises(ShapeError):
            load_csf_npz(p)


class TestNpz:
    def test_roundtrip_exact(self, coo4, tmp_path):
        p = tmp_path / "t.npz"
        save_npz(coo4, p)
        back = load_npz(p)
        assert back.shape == coo4.shape
        np.testing.assert_array_equal(back.indices, coo4.indices)
        np.testing.assert_array_equal(back.values, coo4.values)

    def test_empty_roundtrip(self, tmp_path):
        p = tmp_path / "e.npz"
        save_npz(COOTensor.empty((7, 8)), p)
        back = load_npz(p)
        assert back.shape == (7, 8)
        assert back.nnz == 0


def _tamper(path, **changes):
    """Rewrite the ``.npz`` at ``path`` with some arrays replaced."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays.update(changes)
    np.savez(path, **arrays)


class TestTamperedFiles:
    """The loaders validate what they read: a file that was edited or
    written by another tool fails with ``ShapeError`` instead of loading
    an out-of-shape tensor."""

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_coo_index_outside_shape(self, tmp_path, bad):
        p = tmp_path / "t.npz"
        save_npz(COOTensor((5, 5), [[0, 1], [2, 3]], [1.0, 2.0]), p)
        _tamper(p, indices=np.array([[0, 1], [bad, 3]], dtype=np.int64))
        with pytest.raises(ShapeError):
            load_npz(p)

    @pytest.mark.parametrize(
        "shape, binds, einds",
        [
            ((8, 8, 8), [[0, 0, 0]], [[200, 0, 0]]),  # eind >= B
            ((8, 8, 8), [[0, 0, 0]], [[256, 0, 0]]),  # wraps to 0 in 8 bits
            ((8, 8, 8), [[2, 0, 0]], [[0, 0, 0]]),  # block off the grid
            ((6, 8, 8), [[1, 0, 0]], [[3, 0, 0]]),  # 1 * 4 + 3 >= 6
        ],
        ids=["eind-over-block", "eind-wraps", "block-off-grid", "entry-past-edge"],
    )
    def test_hicoo_entry_outside_shape(self, tmp_path, shape, binds, einds):
        p = tmp_path / "h.npz"
        coo = COOTensor(shape, [[0, 0, 0]], [1.0])
        save_hicoo_npz(HiCOOTensor.from_coo(coo, 4), p)
        _tamper(
            p,
            binds=np.array(binds, dtype=np.uint32),
            einds=np.array(einds, dtype=np.int64),
        )
        with pytest.raises(ShapeError):
            load_hicoo_npz(p)

    @pytest.mark.parametrize(
        "changes",
        [
            {"fids2": np.array([0, 9])},  # leaf id >= its dimension
            {"fids0": np.array([-1])},
            {"fptr0": np.array([0, 3])},  # does not span level 1
            {"values": np.array([1.0])},  # one value short
        ],
        ids=["leaf-id", "negative-id", "fptr-span", "values-short"],
    )
    def test_csf_bad_tree(self, tmp_path, changes):
        p = tmp_path / "c.npz"
        coo = COOTensor((3, 4, 5), [[1, 2, 0], [1, 2, 4]], [1.0, 2.0])
        save_csf_npz(CSFTensor.from_coo(coo), p)
        _tamper(p, **changes)
        with pytest.raises(ShapeError):
            load_csf_npz(p)
