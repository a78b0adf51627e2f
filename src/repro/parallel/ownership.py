"""Owner-computes output-row partitioning for scatter-add kernels.

Give each thread exclusive ownership of a contiguous slice of the
*output* rows and hand it exactly the updates that land in its slice: no
privatization, no atomics, no final reduction — the strategy Liu et al.'s
unified GPU optimization (arXiv 1705.09905) builds its conflict-free
Mttkrp around, here as a reusable pre-processing step for the CPU kernels.

:func:`owner_partition` splits ``[0, n_out)`` into at most ``nparts``
contiguous row ranges whose update counts are balanced (prefix-sum greedy,
like :func:`repro.parallel.partition.balanced_partition`), then stably
buckets the update stream by owning range.  Stability is what makes the
result *bit-identical* to the sequential kernel: all updates to a given
output row share one owner, so their relative order — and therefore the
floating-point accumulation order per row — is exactly the sequential
storage order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.partition import balanced_partition
from repro.util.sorting import stable_argsort


@dataclass(frozen=True)
class OwnerPartition:
    """A conflict-free assignment of scatter updates to output-row owners.

    Attributes
    ----------
    row_bounds:
        ``(nparts + 1,)`` int64; owner ``p`` exclusively writes output rows
        ``[row_bounds[p], row_bounds[p+1])``.
    order:
        ``(M,)`` permutation of the update stream grouping updates by
        owner, stable within each owner (sequential storage order), or
        ``None`` when the stream is already grouped by owner (rows sorted
        along the output mode), so storage order needs no permutation.
    part_ptr:
        ``(nparts + 1,)`` int64 offsets into ``order`` (or into storage
        order when ``order`` is ``None``); owner ``p`` processes entries
        ``part_ptr[p]:part_ptr[p+1]``.
    """

    row_bounds: np.ndarray
    order: "np.ndarray | None"
    part_ptr: np.ndarray

    @property
    def nparts(self) -> int:
        return len(self.part_ptr) - 1

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this partition owns (plan-cache accounting)."""
        arrays = [self.row_bounds, self.part_ptr]
        if self.order is not None:
            arrays.append(self.order)
        return sum(a.nbytes for a in arrays)

    def entry_ranges(self) -> list[tuple[int, int]]:
        """Per-owner non-empty ``(lo, hi)`` entry ranges (backend-ready)."""
        return [
            (int(self.part_ptr[p]), int(self.part_ptr[p + 1]))
            for p in range(self.nparts)
            if self.part_ptr[p + 1] > self.part_ptr[p]
        ]


def owner_partition(rows: np.ndarray, n_out: int, nparts: int) -> OwnerPartition:
    """Partition scatter updates targeting ``rows`` among row owners.

    Parameters
    ----------
    rows:
        ``(M,)`` target output row of every update, in storage order.
    n_out:
        Number of output rows.
    nparts:
        Desired owner count (typically the backend's thread count); the
        result may have fewer parts, never more than ``n_out``.
    """
    n_out = int(n_out)
    nparts = max(1, int(nparts))
    m = len(rows)
    if m == 0 or n_out <= 0:
        return OwnerPartition(
            row_bounds=np.array([0, n_out], dtype=np.int64),
            order=None,
            part_ptr=np.array([0, 0], dtype=np.int64),
        )
    rows = np.asarray(rows)
    counts = np.bincount(rows, minlength=n_out).astype(np.float64)
    ranges = balanced_partition(counts, nparts)
    bounds = np.array([lo for lo, _ in ranges] + [n_out], dtype=np.int64)
    npar = len(bounds) - 1
    part_of = np.searchsorted(bounds, rows, side="right") - 1
    if bool(np.all(part_of[1:] >= part_of[:-1])):
        order = None
        grouped = part_of
    else:
        order = stable_argsort(part_of).astype(np.int64)
        grouped = part_of[order]
    part_ptr = np.searchsorted(
        grouped, np.arange(npar + 1), side="left"
    ).astype(np.int64)
    return OwnerPartition(row_bounds=bounds, order=order, part_ptr=part_ptr)
