"""Tests for Morton (Z-order) encoding."""

import numpy as np
import pytest

from repro.util.morton import morton_decode, morton_encode, morton_order


def bitloop_encode(coords, nbits):
    """The former encoder: one bit of one mode per NumPy pass."""
    cols = np.ascontiguousarray(coords).astype(np.uint64, copy=False)
    m, n = cols.shape
    codes = np.zeros(m, dtype=np.uint64)
    for bit in range(nbits):
        for d in range(n):
            src = (cols[:, d] >> np.uint64(bit)) & np.uint64(1)
            codes |= src << np.uint64(bit * n + (n - 1 - d))
    return codes


class TestByteTableEncoder:
    """The byte-table encoder equals the bit loop bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_bit_loop(self, n):
        rng = np.random.default_rng(n)
        for nbits in sorted({1, 3, 7, 8, 9, 10, 16, 21, 64 // n}):
            if nbits * n > 64:
                continue
            full = rng.integers(0, 2**64, size=(500, n), dtype=np.uint64)
            # exact-width coordinates, and wider ones whose high bits the
            # encoder must ignore
            for coords in (full >> np.uint64(64 - nbits), full):
                np.testing.assert_array_equal(
                    morton_encode(coords, nbits), bitloop_encode(coords, nbits),
                    strict=True,
                )
            if nbits < 64:  # signed input, default width
                small = (full >> np.uint64(64 - nbits)).astype(np.int64)
                np.testing.assert_array_equal(
                    morton_encode(small), bitloop_encode(small, nbits), strict=True
                )

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_empty(self, n):
        coords = np.empty((0, n), dtype=np.int64)
        assert morton_encode(coords).shape == (0,)
        assert morton_encode(coords, 64 // n).dtype == np.uint64

    @pytest.mark.parametrize("n,nbits", [(1, 65), (2, 33), (3, 22), (5, 13)])
    def test_too_wide_rejected(self, n, nbits):
        with pytest.raises(ValueError, match="64-bit"):
            morton_encode(np.zeros((2, n), dtype=np.uint64), nbits)


class TestMortonEncode:
    def test_known_2d_codes(self):
        # Classic 2-D Z-order: (x=row-major-major per our bit placement).
        coords = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        codes = morton_encode(coords)
        # mode 0 is most significant within each bit-plane.
        assert codes[0] == 0
        assert set(codes.tolist()) == {0, 1, 2, 3}
        assert codes[2] > codes[1]  # (1,0) after (0,1) in our convention

    def test_roundtrip_3d(self):
        rng = np.random.default_rng(0)
        coords = rng.integers(0, 1 << 10, size=(200, 3)).astype(np.uint64)
        codes = morton_encode(coords, nbits=10)
        back = morton_decode(codes, 3, 10)
        np.testing.assert_array_equal(back, coords)

    def test_overflow_rejected(self):
        coords = np.full((4, 4), (1 << 20) - 1, dtype=np.uint64)
        with pytest.raises(ValueError, match="64-bit"):
            morton_encode(coords, nbits=20)

    def test_empty(self):
        codes = morton_encode(np.empty((0, 3), dtype=np.uint64))
        assert codes.shape == (0,)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            morton_encode(np.arange(5))


class TestMortonOrder:
    def test_orders_are_permutations(self):
        rng = np.random.default_rng(1)
        coords = rng.integers(0, 100, size=(500, 3))
        order = morton_order(coords)
        assert sorted(order.tolist()) == list(range(500))

    def test_groups_identical_coords_contiguously(self):
        coords = np.array([[1, 2], [0, 0], [1, 2], [0, 0], [3, 3]])
        order = morton_order(coords)
        sorted_coords = coords[order]
        # identical rows must be adjacent after sorting
        seen = set()
        prev = None
        for row in map(tuple, sorted_coords):
            if row != prev and row in seen:
                pytest.fail(f"row {row} appears in two separate runs")
            seen.add(row)
            prev = row

    def test_wide_coords_fall_back_to_lexicographic(self):
        coords = np.array(
            [[2**40, 1, 1], [0, 0, 0], [2**40, 0, 0]], dtype=np.int64
        )
        order = morton_order(coords)
        s = coords[order]
        assert tuple(s[0]) == (0, 0, 0)
        assert tuple(s[1]) == (2**40, 0, 0)

    def test_zorder_locality_beats_random(self):
        """Morton order should place blocks of a 2^k grid in Z-curve runs:
        consecutive codes differ in few high bits on average."""
        n = 32
        grid = np.stack(np.meshgrid(np.arange(n), np.arange(n)), axis=-1).reshape(-1, 2)
        rng = np.random.default_rng(2)
        shuffled = rng.permutation(grid)
        order = morton_order(shuffled)
        s = shuffled[order]
        jumps = np.abs(np.diff(s.astype(int), axis=0)).sum(axis=1)
        assert jumps.mean() < 4.0  # Z-curve: mostly unit steps
