"""Compressed Sparse Fiber (CSF) format (Smith et al., IPDPS'15).

The paper lists CSF as the next format to be added to the suite ("CSF will
be considered for our benchmark suite in the near future"); we include it
as the suite's extension format.  CSF stores a sparse tensor as a forest:
level 0 holds the distinct indices of the first mode in ``mode_order``,
each deeper level holds the distinct child indices underneath each parent
fiber, and the leaves carry values.  Unlike COO/HiCOO it is mode-*specific*
— a tree built for one mode order favors computations rooted at that mode.

Arrays per level ``l`` (0-based):

* ``fids[l]``  — node indices at level ``l``;
* ``fptr[l]``  — for ``l < N-1``: child range of each level-``l`` node.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.types import INDEX_BYTES, VALUE_BYTES, index_dtype_for
from repro.sptensor.coo import COOTensor
from repro.util.validation import check_mode


class CSFTensor:
    """A sparse tensor stored as a compressed fiber tree."""

    __slots__ = ("shape", "mode_order", "fptr", "fids", "values")

    def __init__(
        self,
        shape: Sequence[int],
        mode_order: Sequence[int],
        fptr: list,
        fids: list,
        values: np.ndarray,
        *,
        check: bool = True,
    ):
        self.shape = tuple(int(s) for s in shape)
        n = len(self.shape)
        order = tuple(check_mode(m, n) for m in mode_order)
        if sorted(order) != list(range(n)):
            raise ShapeError(f"mode_order must permute 0..{n-1}, got {mode_order}")
        self.mode_order = order
        self.fptr = [np.asarray(p, dtype=np.int64) for p in fptr]
        self.fids = [np.asarray(f) for f in fids]
        self.values = np.asarray(values)
        if check:
            self._validate()

    def _validate(self) -> None:
        n = len(self.shape)
        if len(self.fids) != n:
            raise ShapeError(f"need {n} fid levels, got {len(self.fids)}")
        if len(self.fptr) != n - 1:
            raise ShapeError(f"need {n - 1} fptr levels, got {len(self.fptr)}")
        for lvl in range(n - 1):
            if len(self.fptr[lvl]) != len(self.fids[lvl]) + 1:
                raise ShapeError(f"fptr[{lvl}] must have len(fids[{lvl}])+1 entries")
            ptr = self.fptr[lvl]
            if ptr[0] != 0 or ptr[-1] != len(self.fids[lvl + 1]):
                raise ShapeError(f"fptr[{lvl}] must span level {lvl + 1}")
            if (np.diff(ptr) < 0).any():
                raise ShapeError(f"fptr[{lvl}] must be non-decreasing")
        if len(self.values) != len(self.fids[-1]):
            raise ShapeError("values must align with the leaf level")
        for lvl, fids in enumerate(self.fids):
            dim = self.shape[self.mode_order[lvl]]
            if fids.size and (int(fids.min()) < 0 or int(fids.max()) >= dim):
                raise ShapeError(f"fids[{lvl}] must lie in [0, {dim})")

    # ------------------------------------------------------------------ #
    @property
    def nmodes(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return self.values.shape[0]

    @property
    def nbytes(self) -> int:
        """32-bit fids + 64-bit fptr + 32-bit values."""
        total = self.nnz * VALUE_BYTES
        for f in self.fids:
            total += len(f) * INDEX_BYTES
        for p in self.fptr:
            total += len(p) * 8
        return total

    def nodes_per_level(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.fids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSFTensor(shape={self.shape}, nnz={self.nnz}, "
            f"mode_order={self.mode_order}, levels={self.nodes_per_level()})"
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(
        cls, tensor: COOTensor, mode_order: Sequence[int] | None = None
    ) -> "CSFTensor":
        """Build the fiber tree for ``mode_order`` (default: natural order)."""
        n = tensor.nmodes
        if mode_order is None:
            mode_order = tuple(range(n))
        order = tuple(check_mode(m, n) for m in mode_order)
        t = tensor.coalesce() if tensor.has_duplicates() else tensor.copy()
        t.sort(order)
        m = t.nnz
        idt = index_dtype_for(tensor.shape)
        if m == 0:
            return cls(
                tensor.shape,
                order,
                [np.zeros(1, dtype=np.int64) for _ in range(n - 1)],
                [np.empty(0, dtype=idt) for _ in range(n)],
                t.values,
                check=False,
            )
        cols = [t.indices[:, mo].astype(np.int64) for mo in order]
        fids: list[np.ndarray] = []
        fptr: list[np.ndarray] = []
        # Prefix keys: a node at level l is a distinct (cols[0..l]) prefix.
        # Walk levels top-down, tracking for each entry its level-l group id.
        prev_group = np.zeros(m, dtype=np.int64)  # all entries under one root run
        prev_ngroups = 1
        for lvl in range(n):
            # New group whenever the parent group or this level's index changes.
            change = np.zeros(m, dtype=bool)
            change[0] = True
            change[1:] = (np.diff(prev_group) != 0) | (np.diff(cols[lvl]) != 0)
            starts = np.flatnonzero(change)
            group = np.cumsum(change) - 1
            fids.append(cols[lvl][starts].astype(idt))
            if lvl > 0:
                # fptr of the parent level: first child node of each parent.
                parent_of_node = prev_group[starts]
                ptr = np.searchsorted(parent_of_node, np.arange(prev_ngroups + 1))
                fptr.append(ptr.astype(np.int64))
            prev_group = group
            prev_ngroups = len(starts)
        return cls(tensor.shape, order, fptr, fids, t.values.copy(), check=False)

    def to_coo(self) -> COOTensor:
        """Expand the tree back to coordinates."""
        n = self.nmodes
        m = self.nnz
        if m == 0:
            return COOTensor.empty(self.shape, dtype=self.values.dtype)
        # Propagate each level's fids down to the leaves.
        inds = np.empty((m, n), dtype=np.int64)
        # counts of leaves under each node, computed bottom-up.
        leaf_counts = [np.ones(len(self.fids[-1]), dtype=np.int64)]
        for lvl in range(n - 2, -1, -1):
            ptr = self.fptr[lvl]
            child = leaf_counts[0]
            sums = np.add.reduceat(child, ptr[:-1])
            sums[np.diff(ptr) == 0] = 0
            leaf_counts.insert(0, sums)
        for lvl in range(n):
            expanded = np.repeat(self.fids[lvl].astype(np.int64), leaf_counts[lvl])
            inds[:, self.mode_order[lvl]] = expanded
        return COOTensor(self.shape, inds, self.values, copy=True, check=False)
