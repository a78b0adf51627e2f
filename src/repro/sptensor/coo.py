"""Coordinate (COO) format for general sparse tensors.

COO is the suite's baseline format (paper Section 3.1): the values live in a
one-dimensional array and each mode contributes one index array.  The
storage of an order-``N`` tensor with ``M`` non-zeros is ``4(N+1)M`` bytes
under the paper's 32-bit convention.

The class below stores the index arrays as one ``(M, N)`` matrix (column
``n`` is mode ``n``'s index array); this is semantically identical to N
separate arrays and lets every kernel slice the mode it needs with no copy.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.types import INDEX_BYTES, VALUE_BYTES, VALUE_DTYPE, index_dtype_for
from repro.util.validation import (
    check_indices_in_bounds,
    check_mode,
    check_shape,
)


class COOTensor:
    """A general sparse tensor in coordinate format.

    Parameters
    ----------
    shape:
        Dimension sizes ``(I_1, ..., I_N)``.
    indices:
        ``(M, N)`` integer coordinates of the non-zeros.
    values:
        ``(M,)`` non-zero values.
    copy:
        Copy the input arrays (default) or adopt them.
    check:
        Validate coordinates against ``shape`` (default).  Generators that
        construct coordinates known to be in bounds pass ``False``.
    """

    __slots__ = (
        "shape", "indices", "values", "_sort_order", "_index_cols",
        "_plan_cache",
    )

    def __init__(
        self,
        shape: Sequence[int],
        indices: np.ndarray,
        values: np.ndarray,
        *,
        copy: bool = True,
        check: bool = True,
    ):
        self.shape = check_shape(shape)
        idx_dtype = index_dtype_for(self.shape)
        indices = np.asarray(indices)
        if indices.ndim == 1 and len(self.shape) == 1:
            indices = indices.reshape(-1, 1)
        if indices.ndim != 2 or indices.shape[1] != len(self.shape):
            raise ShapeError(
                f"indices must be (M, {len(self.shape)}), got {indices.shape}"
            )
        values = np.asarray(values)
        if values.ndim != 1 or values.shape[0] != indices.shape[0]:
            raise ShapeError(
                f"values must be (M,) matching indices; got values "
                f"{values.shape} vs indices {indices.shape}"
            )
        if check:
            check_indices_in_bounds(indices, self.shape)
        if copy:
            self.indices = np.array(indices, dtype=idx_dtype, order="C")
        else:
            self.indices = np.ascontiguousarray(indices, dtype=idx_dtype)
        if not np.issubdtype(values.dtype, np.floating):
            values = values.astype(VALUE_DTYPE)
        self.values = np.array(values) if copy else np.asarray(values)
        self._sort_order: tuple[int, ...] | None = None
        self._index_cols: dict[int, np.ndarray] = {}
        # Cached scatter, owner and fiber plans (repro.kernels.plans);
        # entry-order dependent, so invalidated together with the
        # index-column cache.
        self._plan_cache: dict = {}

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def nmodes(self) -> int:
        """Tensor order ``N``."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros ``M``."""
        return self.values.shape[0]

    @property
    def density(self) -> float:
        """``nnz / prod(shape)`` computed in floats to avoid overflow."""
        total = 1.0
        for s in self.shape:
            total *= float(s)
        return self.nnz / total if total else 0.0

    @property
    def nbytes(self) -> int:
        """Paper storage model: ``4(N+1)M`` bytes (32-bit indices+values)."""
        return (self.nmodes * INDEX_BYTES + VALUE_BYTES) * self.nnz

    @property
    def cache_nbytes(self) -> int:
        """Bytes held by the index-column and plan caches.

        The caches are snapshotted first: a kernel on another thread may
        add to them while a bundle cache sizes this tensor."""
        cached = list(self._index_cols.values()) + list(self._plan_cache.values())
        return sum(c.nbytes for c in cached)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"COOTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )

    def index_column(self, mode: int) -> np.ndarray:
        """Canonical int64 copy of mode ``mode``'s index column, cached.

        Kernels index factor matrices with int64 coordinates; slicing
        ``indices[:, mode].astype(np.int64)`` per call silently copies the
        (strided) column every time.  This caches one contiguous read-only
        int64 column per mode for the tensor's lifetime; :meth:`sort`
        invalidates the cache when it permutes the entries.
        """
        mode = check_mode(mode, self.nmodes)
        col = self._index_cols.get(mode)
        if col is None:
            col = np.ascontiguousarray(self.indices[:, mode], dtype=np.int64)
            col.setflags(write=False)
            self._index_cols[mode] = col
        return col

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, array: np.ndarray) -> "COOTensor":
        """Extract the non-zero pattern of a dense ndarray."""
        array = np.asarray(array)
        coords = np.nonzero(array)
        indices = np.stack(coords, axis=1) if array.ndim else np.empty((0, 1))
        values = array[coords]
        return cls(array.shape, indices, values, check=False)

    @classmethod
    def empty(cls, shape: Sequence[int], dtype=VALUE_DTYPE) -> "COOTensor":
        """A tensor of the given shape with no stored entries."""
        shape = check_shape(shape)
        return cls(
            shape,
            np.empty((0, len(shape)), dtype=index_dtype_for(shape)),
            np.empty(0, dtype=dtype),
            copy=False,
            check=False,
        )

    @classmethod
    def random(
        cls,
        shape: Sequence[int],
        nnz: int,
        rng: "int | np.random.Generator | None" = None,
        dtype=VALUE_DTYPE,
    ) -> "COOTensor":
        """Uniform random sparse tensor with exactly ``nnz`` distinct entries."""
        from repro.util.prng import rng_from_seed

        shape = check_shape(shape)
        gen = rng_from_seed(rng)
        total = 1
        for s in shape:
            total *= s
        nnz = min(int(nnz), total)
        if total <= 2**62:
            # Draw distinct linear positions, then unravel.
            lin = _sample_distinct(gen, total, nnz)
            coords = np.stack(np.unravel_index(lin, shape), axis=1)
        else:  # pragma: no cover - astronomically sparse case
            coords = np.stack(
                [gen.integers(0, s, size=nnz) for s in shape], axis=1
            )
            coords = np.unique(coords, axis=0)
        vals = gen.random(coords.shape[0]).astype(dtype) + dtype(0.5)
        return cls(shape, coords, vals, copy=False, check=False)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ndarray (duplicates are summed)."""
        total = 1
        for s in self.shape:
            total *= s
        if total > 5e8:
            raise MemoryError(
                f"refusing to densify a tensor with {total} cells"
            )
        out = np.zeros(self.shape, dtype=self.values.dtype)
        np.add.at(out, tuple(self.indices[:, m] for m in range(self.nmodes)), self.values)
        return out

    def copy(self) -> "COOTensor":
        dup = COOTensor(self.shape, self.indices, self.values, copy=True, check=False)
        dup._sort_order = self._sort_order
        return dup

    def astype(self, dtype) -> "COOTensor":
        """Return a copy with values cast to ``dtype``."""
        dup = COOTensor(
            self.shape, self.indices, self.values.astype(dtype), copy=True, check=False
        )
        dup._sort_order = self._sort_order
        return dup

    # ------------------------------------------------------------------ #
    # Ordering, linearization, deduplication
    # ------------------------------------------------------------------ #
    def linearize(self, mode_order: Sequence[int] | None = None) -> np.ndarray:
        """Row-major linear index of each entry under ``mode_order``.

        ``mode_order[0]`` is the slowest-varying (most significant) mode.
        Used for pattern comparison, merging (Tew) and sorting.
        """
        order = self._normalize_order(mode_order)
        lin = np.zeros(self.nnz, dtype=np.int64)
        stride = 1
        # Accumulate from the fastest-varying mode backwards.
        for m in reversed(order):
            lin += self.indices[:, m].astype(np.int64) * stride
            stride *= self.shape[m]
        return lin

    def _normalize_order(self, mode_order: Sequence[int] | None) -> tuple[int, ...]:
        if mode_order is None:
            return tuple(range(self.nmodes))
        order = tuple(check_mode(m, self.nmodes) for m in mode_order)
        if sorted(order) != list(range(self.nmodes)):
            raise ShapeError(
                f"mode_order must be a permutation of 0..{self.nmodes - 1}, "
                f"got {mode_order}"
            )
        return order

    def sort(self, mode_order: Sequence[int] | None = None) -> "COOTensor":
        """Sort entries in row-major order of ``mode_order`` (in place).

        Returns ``self`` for chaining.  A no-op when already sorted in that
        order (the sort order is cached and invalidated by mutation).
        """
        order = self._normalize_order(mode_order)
        if self._sort_order == order:
            return self
        perm = np.argsort(self.linearize(order), kind="stable")
        self.indices = np.ascontiguousarray(self.indices[perm])
        self.values = self.values[perm]
        self._sort_order = order
        self._index_cols = {}
        self._plan_cache = {}
        return self

    @property
    def sort_order(self) -> tuple[int, ...] | None:
        """The cached mode order the entries are sorted by, if any."""
        return self._sort_order

    def coalesce(self) -> "COOTensor":
        """Return a new tensor with duplicate coordinates summed and sorted."""
        if self.nnz == 0:
            out = self.copy()
            out._sort_order = tuple(range(self.nmodes))
            return out
        lin = self.linearize()
        uniq, inverse = np.unique(lin, return_inverse=True)
        vals = np.zeros(len(uniq), dtype=self.values.dtype)
        np.add.at(vals, inverse, self.values)
        first = np.zeros(len(uniq), dtype=np.int64)
        # np.unique returns sorted uniq; recover one representative index per
        # group to keep the original coordinates (cheaper than unravel).
        seen_order = np.argsort(inverse, kind="stable")
        group_starts = np.searchsorted(inverse[seen_order], np.arange(len(uniq)))
        first = seen_order[group_starts]
        out = COOTensor(
            self.shape, self.indices[first], vals, copy=False, check=False
        )
        out._sort_order = tuple(range(self.nmodes))
        return out

    def has_duplicates(self) -> bool:
        lin = self.linearize()
        return len(np.unique(lin)) != self.nnz

    # ------------------------------------------------------------------ #
    # Comparison / export
    # ------------------------------------------------------------------ #
    def pattern_equals(self, other: "COOTensor") -> bool:
        """True when both tensors store exactly the same coordinate set."""
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        a = np.sort(self.linearize())
        b = np.sort(other.linearize())
        return bool(np.array_equal(a, b))

    def allclose(self, other: "COOTensor", rtol=1e-5, atol=1e-6) -> bool:
        """Numerical equality as *tensors* (pattern-order independent).

        Coalesces both operands, compares coordinates exactly and values
        approximately.  Explicit zeros are dropped before comparison.
        """
        if self.shape != other.shape:
            return False
        a = self.coalesce().drop_zeros(atol)
        b = other.coalesce().drop_zeros(atol)
        if a.nnz != b.nnz:
            return False
        if not np.array_equal(a.linearize(), b.linearize()):
            return False
        return bool(np.allclose(a.values, b.values, rtol=rtol, atol=atol))

    def drop_zeros(self, atol: float = 0.0) -> "COOTensor":
        """Remove stored entries with ``|value| <= atol``."""
        keep = np.abs(self.values) > atol
        if keep.all():
            return self
        out = COOTensor(
            self.shape, self.indices[keep], self.values[keep], copy=False, check=False
        )
        out._sort_order = self._sort_order
        return out

    def permute_modes(self, perm: Sequence[int]) -> "COOTensor":
        """Reorder the tensor's modes (a sparse transpose)."""
        order = self._normalize_order(perm)
        shape = tuple(self.shape[m] for m in order)
        return COOTensor(
            shape,
            np.ascontiguousarray(self.indices[:, list(order)]),
            self.values,
            copy=True,
            check=False,
        )

    def mode_sizes_touched(self, mode: int) -> int:
        """Distinct indices appearing on ``mode`` (working-set estimation)."""
        mode = check_mode(mode, self.nmodes)
        return int(len(np.unique(self.indices[:, mode])))


def _sample_distinct(gen: np.random.Generator, total: int, nnz: int) -> np.ndarray:
    """Sample ``nnz`` distinct integers from ``[0, total)`` memory-safely."""
    if nnz >= total:
        return np.arange(total, dtype=np.int64)
    if total <= 4 * nnz or total <= 1 << 22:
        return gen.choice(total, size=nnz, replace=False).astype(np.int64)
    # Rejection sampling: oversample, dedupe, top up until enough.
    out = np.unique(gen.integers(0, total, size=int(nnz * 1.2), dtype=np.int64))
    while len(out) < nnz:
        extra = gen.integers(0, total, size=nnz, dtype=np.int64)
        out = np.unique(np.concatenate([out, extra]))
    return gen.permutation(out)[:nnz]


def stack_entries(
    shape: Sequence[int],
    entries: Iterable[tuple[Sequence[int], float]],
) -> COOTensor:
    """Build a COOTensor from ``((i, j, ...), value)`` pairs (testing aid)."""
    coords, vals = [], []
    for coord, val in entries:
        coords.append(tuple(int(c) for c in coord))
        vals.append(float(val))
    if not coords:
        return COOTensor.empty(shape)
    return COOTensor(shape, np.asarray(coords), np.asarray(vals))
