"""Cached structure and whole-array primitives of the kernel lowerings.

Every kernel cell has one lowering, and it runs on every backend:

* Mttkrp ``atomic``/``owner`` — one ``backend.map_ranges`` range per
  output-row owner (:class:`~repro.parallel.ownership.OwnerPartition`);
  each range scatters its entries with :func:`scatter_rows`, in storage
  order.  With one thread the range is ``[0, nnz)`` and no partition is
  built;
* Mttkrp ``sort`` — one ``np.add.reduceat`` over plan-cached segment
  starts (:class:`ScatterPlan`);
* Ttv/Ttm fibers and Tew/Ts values — ``backend.parallel_for`` chunks,
  which the sequential backend runs as one whole-array chunk.

Each output row or element is written by one range or chunk, with the
same floating-point schedule whatever the thread count, so every backend
returns the same bits as the sequential one.

Plans live in the tensor's ``_plan_cache`` slot, so a CP-ALS sweep or a
benchmark rep loop builds each plan once; ``COOTensor.sort()``
invalidates the cache along with the index-column cache.  Plan builds are
counted in the metrics registry (``plan.builds``, ``plan.build_seconds``)
so the benchmark harness can report them apart from steady-state medians.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.registry import get_metrics
from repro.parallel.ownership import OwnerPartition, owner_partition


def _record_plan_build(seconds: float, what: str) -> None:
    metrics = get_metrics()
    metrics.inc("plan.builds", what=what)
    metrics.inc("plan.build_seconds", float(seconds), what=what)


#: Entries per block of the flattened scatter: bounds the int64 index
#: temporary at ``_SCATTER_BLOCK * R * 8`` bytes.
_SCATTER_BLOCK = 1 << 14


def scatter_rows(out: np.ndarray, rows: np.ndarray, contrib: np.ndarray) -> None:
    """``out[rows[k], :] += contrib[k, :]`` for every ``k``, in storage order.

    An unbuffered ``np.add.at`` on the flattened output, so NumPy takes
    its fast one-dimensional path; each output cell receives its summands
    in storage order.  ``out`` must be C-contiguous.
    """
    r = out.shape[1]
    flat = out.reshape(-1)
    cols = np.arange(r, dtype=np.int64)
    for lo in range(0, len(rows), _SCATTER_BLOCK):
        hi = lo + _SCATTER_BLOCK
        index = (rows[lo:hi, None] * r + cols).ravel()
        np.add.at(flat, index, contrib[lo:hi].ravel())


class ScatterPlan:
    """Cached segment structure of one row stream (the ``sort`` method).

    Attributes
    ----------
    order:
        Stable argsort of the rows, or ``None`` when they are already
        non-decreasing (the benchmark tensors are sorted by mode 0, so
        mode-0 Mttkrp skips the argsort).  Stability keeps each row's
        summands in storage order.
    starts, urows:
        Segment starts into the sorted stream and the output row of
        each segment.
    """

    __slots__ = ("order", "starts", "urows")

    def __init__(self, rows: np.ndarray):
        diffs = np.diff(rows)
        if diffs.size == 0 or bool(np.all(diffs >= 0)):
            self.order = None
            sorted_rows = rows
        else:
            self.order = np.argsort(rows, kind="stable")
            sorted_rows = rows[self.order]
        if len(sorted_rows):
            self.starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(sorted_rows)) + 1)
            ).astype(np.int64)
            self.urows = sorted_rows[self.starts]
        else:
            self.starts = np.zeros(0, dtype=np.int64)
            self.urows = np.zeros(0, dtype=np.int64)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this plan owns."""
        arrays = [self.starts, self.urows]
        if self.order is not None:
            arrays.append(self.order)
        return sum(a.nbytes for a in arrays)

    def reduce_segments(self, out: np.ndarray, contrib: np.ndarray) -> None:
        """``out[row] +=`` the stable-order pairwise ``np.add.reduceat``
        of each row's contributions."""
        if not len(self.starts):
            return
        stream = contrib if self.order is None else contrib[self.order]
        out[self.urows] += np.add.reduceat(stream, self.starts, axis=0)


def cached_plan(tensor, key: tuple, builder):
    """``tensor._plan_cache[key]``, building (and timing) on first use.

    Objects without the ``_plan_cache`` slot get a throwaway dict, so the
    kernels still run on them, just without cross-call reuse.
    """
    cache = getattr(tensor, "_plan_cache", {})
    plan = cache.get(key)
    if plan is None:
        t0 = time.perf_counter()
        plan = builder()
        _record_plan_build(time.perf_counter() - t0, what=str(key[0]))
        cache[key] = plan
    return plan


def scatter_plan(tensor, rows: np.ndarray, tag) -> ScatterPlan:
    """The tensor's cached :class:`ScatterPlan` of the row stream ``tag``
    names (the Mttkrp product mode)."""
    return cached_plan(tensor, ("scatter", tag), lambda: ScatterPlan(rows))



def owner_plan(tensor, rows: np.ndarray, n_out: int, tag, nparts: int) -> OwnerPartition:
    """The tensor's cached :class:`OwnerPartition` of the row stream
    ``tag`` names among ``nparts`` owners."""
    return cached_plan(
        tensor, ("owner", tag, nparts), lambda: owner_partition(rows, n_out, nparts)
    )
