"""Vectorized Morton (Z-order) codes for N-dimensional block coordinates.

HiCOO sorts tensor blocks in Morton order to increase data locality when a
block is revisited along different modes (Li et al., SC'18).  We implement a
vectorized bit-interleaving encoder for arbitrary mode counts.  When the
coordinates are too wide to interleave into a single 64-bit word, callers
fall back to lexicographic ordering via :func:`morton_order`, which handles
both regimes transparently.
"""

from __future__ import annotations

import numpy as np

from repro.util.sorting import stable_argsort


def _required_bits(coords: np.ndarray) -> int:
    """Number of bits needed per coordinate column."""
    if coords.size == 0:
        return 1
    max_coord = int(coords.max())
    return max(1, int(max_coord).bit_length())


def morton_encode(coords: np.ndarray, nbits: int | None = None) -> np.ndarray:
    """Interleave the bits of each row of ``coords`` into a Morton code.

    Parameters
    ----------
    coords:
        ``(M, N)`` array of non-negative integers; row ``m`` holds the
        N-dimensional coordinate of item ``m``.
    nbits:
        Bits per coordinate to interleave.  Defaults to the minimum needed
        for the largest coordinate present.

    Returns
    -------
    ``(M,)`` uint64 array of Z-order codes.  Bit ``k`` of coordinate ``d``
    lands at output bit ``k * N + (N - 1 - d)`` so that mode 0 is the most
    significant within each bit-plane (matching row-major tie-breaking).

    Raises
    ------
    ValueError
        If ``nbits * N > 64`` (codes would overflow a single word).
    """
    coords = np.ascontiguousarray(coords)
    if coords.ndim != 2:
        raise ValueError(f"coords must be 2-D (M, N), got shape {coords.shape}")
    m, n = coords.shape
    if nbits is None:
        nbits = _required_bits(coords)
    if nbits * n > 64:
        raise ValueError(
            f"cannot interleave {n} coordinates of {nbits} bits into 64-bit "
            f"Morton codes (needs {nbits * n} bits)"
        )
    codes = np.zeros(m, dtype=np.uint64)
    cols = coords.astype(np.uint64, copy=False)
    for bit in range(nbits):
        for d in range(n):
            src = (cols[:, d] >> np.uint64(bit)) & np.uint64(1)
            dst_bit = np.uint64(bit * n + (n - 1 - d))
            codes |= src << dst_bit
    return codes


def morton_decode(codes: np.ndarray, nmodes: int, nbits: int) -> np.ndarray:
    """Invert :func:`morton_encode` for ``(M,)`` codes into ``(M, nmodes)``."""
    codes = np.asarray(codes, dtype=np.uint64)
    if nbits * nmodes > 64:
        raise ValueError("decode width exceeds 64 bits")
    out = np.zeros((codes.shape[0], nmodes), dtype=np.uint64)
    for bit in range(nbits):
        for d in range(nmodes):
            src_bit = np.uint64(bit * nmodes + (nmodes - 1 - d))
            out[:, d] |= ((codes >> src_bit) & np.uint64(1)) << np.uint64(bit)
    return out


def morton_order(coords: np.ndarray) -> np.ndarray:
    """Return the permutation sorting rows of ``coords`` in Z-order.

    Falls back to lexicographic (row-major) ordering when the coordinates
    are too wide for a 64-bit Morton code.  Lexicographic ordering preserves
    the key HiCOO property (entries of the same block are contiguous) at the
    cost of weaker inter-block locality, which only matters for performance,
    not correctness.
    """
    coords = np.ascontiguousarray(coords)
    if coords.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    nbits = _required_bits(coords)
    if nbits * coords.shape[1] <= 64:
        codes = morton_encode(coords, nbits)
        return stable_argsort(codes)
    # np.lexsort sorts by the *last* key first, so feed columns reversed to
    # obtain row-major (mode-0 major) ordering.
    return np.lexsort(tuple(coords[:, d] for d in range(coords.shape[1] - 1, -1, -1)))
