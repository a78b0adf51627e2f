"""Hierarchical Coordinate (HiCOO) format (Li et al., SC'18; paper Sec. 3.3).

HiCOO compresses COO indices in units of ``B × ... × B`` sparse blocks:

* ``bptr``  — start of every block's entries in the element arrays;
* ``binds`` — per-block block coordinates (32-bit, one per mode);
* ``einds`` — per-entry element offsets inside the block (8-bit);
* ``values`` — per-entry values.

Blocks are ordered by the Morton code of their block coordinates, which is
what gives HiCOO its locality advantage when the same representation is
traversed along different modes.  Like COO, HiCOO is mode-generic: one
representation serves every kernel in every mode.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.types import (
    BPTR_BYTES,
    DEFAULT_BLOCK_SIZE,
    EINDEX_BYTES,
    EINDEX_DTYPE,
    INDEX_BYTES,
    VALUE_BYTES,
    index_dtype_for,
)
from repro.sptensor.coo import COOTensor
from repro.util.bits import ilog2, is_pow2
from repro.util.morton import morton_encode
from repro.util.sorting import stable_argsort


def _hicoo_sort_order(bcoords: np.ndarray, ecoords: np.ndarray) -> np.ndarray:
    """Stable permutation ordering entries by (Morton(block), element
    row-major).

    One ``(morton << 8N) | ekey`` key is sorted whenever it fits in 63
    bits; it orders exactly like ``lexsort((ekey, morton))``, the path
    taken otherwise.
    Falls back to lexicographic block ordering when the block coordinates
    are too wide for 64-bit Morton codes (affects locality only, never
    grouping correctness).
    """
    m, n = bcoords.shape
    if m == 0:
        return np.empty(0, dtype=np.intp)
    # Element key: row-major linear offset within a block; B <= 256 so
    # each element coordinate takes 8 bits.
    ekey = np.zeros(m, dtype=np.int64)
    for d in range(n):
        ekey = ekey * 256 + ecoords[:, d].astype(np.int64)
    try:
        bkey = morton_encode(bcoords)
    except ValueError:
        cols = [ekey] + [bcoords[:, d] for d in range(n - 1, -1, -1)]
        return np.lexsort(tuple(cols))
    if int(bkey.max()).bit_length() + 8 * n <= 63:
        return stable_argsort((bkey.view(np.int64) << np.int64(8 * n)) | ekey)
    return np.lexsort((ekey, bkey))


class HiCOOTensor:
    """A general sparse tensor in HiCOO format.

    Construct via :meth:`from_coo`; the raw constructor adopts pre-built
    arrays and is used by kernels that pre-allocate outputs.
    """

    __slots__ = (
        "shape", "block_size", "bptr", "binds", "einds", "values",
        "_entry_bids", "_global_rows", "_plan_cache",
    )

    def __init__(
        self,
        shape: Sequence[int],
        block_size: int,
        bptr: np.ndarray,
        binds: np.ndarray,
        einds: np.ndarray,
        values: np.ndarray,
        *,
        check: bool = True,
    ):
        self.shape = tuple(int(s) for s in shape)
        if not is_pow2(block_size) or not (1 <= block_size <= 256):
            raise FormatError(
                f"HiCOO block size must be a power of two in [1, 256] "
                f"(8-bit element indices), got {block_size}"
            )
        self.block_size = int(block_size)
        self.bptr = np.asarray(bptr, dtype=np.int64)
        self.binds = np.asarray(binds)
        self.einds = np.asarray(einds, dtype=EINDEX_DTYPE)
        self.values = np.asarray(values)
        self._entry_bids: np.ndarray | None = None
        self._global_rows: dict[int, np.ndarray] = {}
        # Cached scatter, owner and fiber plans (repro.kernels.plans);
        # HiCOO is immutable after build, so the cache lives for the
        # tensor's lifetime.
        self._plan_cache: dict = {}
        if check:
            self._validate()

    def _validate(self) -> None:
        n = len(self.shape)
        if self.binds.ndim != 2 or self.binds.shape[1] != n:
            raise ShapeError(f"binds must be (nb, {n}), got {self.binds.shape}")
        if self.einds.ndim != 2 or self.einds.shape[1] != n:
            raise ShapeError(f"einds must be (M, {n}), got {self.einds.shape}")
        if self.bptr.ndim != 1 or len(self.bptr) != self.binds.shape[0] + 1:
            raise ShapeError(
                f"bptr must have nb+1={self.binds.shape[0] + 1} entries, "
                f"got {len(self.bptr)}"
            )
        if self.bptr[0] != 0 or self.bptr[-1] != len(self.values):
            raise ShapeError("bptr must span [0, nnz]")
        if (np.diff(self.bptr) < 0).any():
            raise ShapeError("bptr must be non-decreasing")
        if self.einds.size and int(self.einds.max()) >= self.block_size:
            raise ShapeError("element index exceeds block size")

    # ------------------------------------------------------------------ #
    @property
    def nmodes(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return self.values.shape[0]

    @property
    def nblocks(self) -> int:
        """``nb``: number of non-empty tensor blocks."""
        return self.binds.shape[0]

    @property
    def density(self) -> float:
        total = 1.0
        for s in self.shape:
            total *= float(s)
        return self.nnz / total if total else 0.0

    def nnz_per_block(self) -> np.ndarray:
        """Entries per block — the source of HiCOO-Mttkrp-GPU imbalance."""
        return np.diff(self.bptr)

    @property
    def nbytes(self) -> int:
        """Paper storage model: 64-bit bptr, 32-bit binds, 8-bit einds."""
        n = self.nmodes
        return (
            self.nblocks * (BPTR_BYTES + n * INDEX_BYTES)
            + self.nnz * (n * EINDEX_BYTES + VALUE_BYTES)
        )

    @property
    def cache_nbytes(self) -> int:
        """Bytes held by the block-id, global-row and plan caches
        (snapshotted first, as :attr:`COOTensor.cache_nbytes` explains)."""
        cached = list(self._global_rows.values()) + list(self._plan_cache.values())
        if self._entry_bids is not None:
            cached.append(self._entry_bids)
        return sum(c.nbytes for c in cached)

    def compression_ratio(self) -> float:
        """COO bytes divided by HiCOO bytes for the same tensor (>1 is a win)."""
        coo_bytes = (self.nmodes * INDEX_BYTES + VALUE_BYTES) * self.nnz
        return coo_bytes / self.nbytes if self.nbytes else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HiCOOTensor(shape={self.shape}, nnz={self.nnz}, "
            f"nblocks={self.nblocks}, B={self.block_size})"
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(
        cls, tensor: COOTensor, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> "HiCOOTensor":
        """Convert a COO tensor: split coordinates into block/element parts,
        Morton-sort the blocks, and group contiguous runs into ``bptr``."""
        if not is_pow2(block_size) or not (1 <= block_size <= 256):
            raise FormatError(
                f"block size must be a power of two in [1, 256], got {block_size}"
            )
        inds = tensor.indices.astype(np.int64, copy=False)
        bcoords = inds >> np.int64(ilog2(block_size))
        ecoords = (inds & np.int64(block_size - 1)).astype(EINDEX_DTYPE)
        perm = _hicoo_sort_order(bcoords, ecoords)
        bcoords = bcoords[perm]
        ecoords = np.ascontiguousarray(ecoords[perm])
        values = tensor.values[perm]
        m = tensor.nnz
        if m == 0:
            return cls(
                tensor.shape,
                block_size,
                np.zeros(1, dtype=np.int64),
                np.empty((0, tensor.nmodes), dtype=index_dtype_for(tensor.shape)),
                np.empty((0, tensor.nmodes), dtype=EINDEX_DTYPE),
                values,
                check=False,
            )
        change = np.flatnonzero((np.diff(bcoords, axis=0) != 0).any(axis=1)) + 1
        starts = np.concatenate(([0], change))
        bptr = np.concatenate((starts, [m])).astype(np.int64)
        binds = bcoords[starts].astype(index_dtype_for(tensor.shape))
        return cls(tensor.shape, block_size, bptr, binds, ecoords, values, check=False)

    def to_coo(self) -> COOTensor:
        """Expand back to COO: ``index = bind * B + eind`` per entry, from
        the cached per-mode :meth:`global_row` columns."""
        inds = np.stack([self.global_row(m) for m in range(self.nmodes)], axis=1)
        return COOTensor(self.shape, inds, self.values, copy=False, check=False)

    def entry_block_ids(self) -> np.ndarray:
        """``(M,)`` map from entry to its owning block id (cached).

        HiCOO tensors are immutable once built, so the expansion is
        computed once and shared by every kernel call on this tensor.
        """
        if self._entry_bids is None:
            bid = np.repeat(
                np.arange(self.nblocks, dtype=np.int64), np.diff(self.bptr)
            )
            bid.setflags(write=False)
            self._entry_bids = bid
        return self._entry_bids

    def global_row(self, mode: int) -> np.ndarray:
        """``(M,)`` int64 global coordinates along ``mode``, cached.

        ``bind * B + eind`` per entry — the per-mode gather every HiCOO
        kernel needs.  The seed recomputed (and silently copied) this for
        *every* mode on *every* Mttkrp call; caching it per mode makes the
        re-gather free across kernel calls and modes.
        """
        col = self._global_rows.get(mode)
        if col is None:
            bid = self.entry_block_ids()
            col = (
                self.binds[bid, mode].astype(np.int64)
                * np.int64(self.block_size)
                + self.einds[:, mode].astype(np.int64)
            )
            col.setflags(write=False)
            self._global_rows[mode] = col
        return col

    def copy(self) -> "HiCOOTensor":
        return HiCOOTensor(
            self.shape,
            self.block_size,
            self.bptr.copy(),
            self.binds.copy(),
            self.einds.copy(),
            self.values.copy(),
            check=False,
        )

    def global_indices(self) -> np.ndarray:
        """``(M, N)`` int64 reconstructed global coordinates (block-ordered).

        Computed afresh, filling no cache: a launch model or statistic
        that reads them leaves no per-entry state on a tensor that may
        live for a whole sweep."""
        bid = np.repeat(np.arange(self.nblocks, dtype=np.int64), np.diff(self.bptr))
        return self.binds[bid].astype(np.int64) * np.int64(self.block_size) + self.einds
