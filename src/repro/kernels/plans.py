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
  which the sequential backend runs as one whole-array chunk.  The fibers
  come from the tensor's cached :class:`FiberPlan` (paper Algorithm 1,
  line 1: sort so the product mode varies fastest, record fiber starts).

Each output row or element is written by one range or chunk, with the
same floating-point schedule whatever the thread count, so every backend
returns the same bits as the sequential one.

Plans live in the tensor's ``_plan_cache`` slot, so a CP-ALS sweep or a
benchmark rep loop builds each plan once:

* ``("scatter", mode)`` — :class:`ScatterPlan`, Mttkrp ``sort``;
* ``("owner", mode, nthreads)`` — the Mttkrp owner partition;
* ``("fibers", mode)`` — :class:`FiberPlan`, the Ttv/Ttm fibers;
* ``("lengths", mode)`` — :func:`fiber_lengths`, the fiber lengths the
  GPU launch models, the OI features and the fiber statistics read.

``COOTensor.sort()`` invalidates the cache along with the index-column
cache.  Plan builds are counted in the metrics registry (``plan.builds``,
``plan.build_seconds``, labelled ``what=`` the key's first word) so the
benchmark harness can report them apart from steady-state medians.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.obs.registry import get_metrics
from repro.parallel.ownership import OwnerPartition, owner_partition
from repro.sptensor.coo import COOTensor
from repro.sptensor.ghicoo import GHiCOOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.sorting import stable_argsort
from repro.util.validation import check_mode


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
            self.order = stable_argsort(rows)
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


class Fibers(NamedTuple):
    """The fibers of a sorted entry stream.

    ``fptr`` is the ``(MF + 1,)`` int64 start offset of each fiber in the
    stream, ``heads`` the storage position of each fiber's first entry
    (the entry whose other coordinates the output keeps), and ``col`` the
    product-mode index of every entry, gathered into stream order.
    """

    fptr: np.ndarray
    heads: np.ndarray
    col: np.ndarray


def sorted_fibers(
    keys: Sequence[np.ndarray],
    col: np.ndarray,
    order: np.ndarray | None = None,
) -> Fibers:
    """Form the fibers of a sorted entry stream (Algorithm 1, line 1).

    The stream is the entries taken in ``order`` (storage order when
    ``None``), sorted so that each fiber is one contiguous run.  ``keys``
    are per-entry arrays in stream order that are jointly constant within
    a fiber and differ between neighbouring fibers; ``col`` is the
    product-mode index column in storage order.
    """
    m = len(col)
    change = np.zeros(m, dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(change)
    fptr = np.append(starts, m).astype(np.int64)
    heads = starts
    if order is not None:
        heads, col = order[starts], col[order]
    return Fibers(fptr, heads, col.astype(np.int64, copy=False))


class FiberPlan(NamedTuple):
    """The Ttv/Ttm pre-processing of one tensor and product mode.

    COO: ``perm`` is the stable sort with the product mode varying
    fastest, and ``fibers`` are the runs of the sorted stream.  HiCOO:
    ``ghicoo`` is the tensor re-represented with only the product mode
    uncompressed (paper Sec. 3.4.1), so no fiber spans blocks; ``fibers``
    are the runs of its storage order and ``bptr`` is each block's first
    fiber, the ``bptr`` of an output that keeps the input's blocks.
    """

    perm: "np.ndarray | None"
    fibers: Fibers
    ghicoo: "GHiCOOTensor | None" = None
    bptr: "np.ndarray | None" = None

    @property
    def nfibers(self) -> int:
        """``MF``: count of non-empty fibers."""
        return len(self.fibers.fptr) - 1

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this plan holds (for HiCOO, the gHiCOO
        copy's arrays, not its 32-bit storage model)."""
        g = self.ghicoo
        arrays = [*self.fibers] + (
            [self.perm] if g is None else [self.bptr, g.bptr, g.binds, g.einds, g.cinds, g.values]
        )
        return sum(a.nbytes for a in arrays)


def _coo_fiber_plan(x: COOTensor, mode: int) -> FiberPlan:
    rest = [m for m in range(x.nmodes) if m != mode]
    lin = x.linearize(rest + [mode])
    perm = stable_argsort(lin)
    rest_key = lin[perm] // np.int64(x.shape[mode])
    return FiberPlan(perm, sorted_fibers((rest_key,), x.indices[:, mode], perm))


def _ghicoo_fiber_plan(x: "HiCOOTensor | GHiCOOTensor", mode: int) -> FiberPlan:
    if isinstance(x, HiCOOTensor):
        comp = tuple(m for m in range(x.nmodes) if m != mode)
        x = GHiCOOTensor.from_coo(x.to_coo(), x.block_size, comp)
    elif x.uncompressed_modes != (mode,):
        raise ShapeError(
            f"gHiCOO Ttv/Ttm expect exactly the product mode {mode} "
            f"uncompressed, got uncompressed modes {x.uncompressed_modes}"
        )
    # Block- then element-ordered entries: fibers are runs of equal
    # (block, element coordinates).
    bid = np.repeat(np.arange(x.nblocks, dtype=np.int64), np.diff(x.bptr))
    col = x.uncompressed_column(mode).astype(np.int64)  # a copy, not a view
    fib = sorted_fibers((bid,) + tuple(x.einds.T), col)
    bptr = np.searchsorted(fib.heads, x.bptr).astype(np.int64)
    return FiberPlan(None, fib, x, bptr)


def fiber_plan(x, mode: int) -> FiberPlan:
    """The tensor's cached :class:`FiberPlan` for product mode ``mode``.

    ``x`` is a COO, HiCOO or gHiCOO tensor; a HiCOO plan holds its own
    gHiCOO copy.
    """
    mode = check_mode(mode, x.nmodes)
    build = _coo_fiber_plan if isinstance(x, COOTensor) else _ghicoo_fiber_plan
    return cached_plan(x, ("fibers", mode), lambda: build(x, mode))


def fiber_lengths(x, mode: int) -> np.ndarray:
    """Non-zeros per mode-``mode`` fiber, cached, fibers in COO order on
    every format (the order the GPU launch models block them in).

    Taken from the cached COO fiber plan when a kernel built one, else
    from one built and dropped: a tensor that only feeds models and
    statistics keeps ``MF`` integers per mode, not a permutation.
    """
    mode = check_mode(mode, x.nmodes)

    def build() -> np.ndarray:
        if isinstance(x, HiCOOTensor):
            # Not ``to_coo``: that caches the global rows on ``x``.
            coo = COOTensor(x.shape, x.global_indices(), x.values, copy=False, check=False)
            return np.diff(_coo_fiber_plan(coo, mode).fibers.fptr)
        if not isinstance(x, COOTensor):
            return np.diff(_coo_fiber_plan(x.to_coo(), mode).fibers.fptr)
        plan = getattr(x, "_plan_cache", {}).get(("fibers", mode))
        if plan is None:
            plan = _coo_fiber_plan(x, mode)
        return np.diff(plan.fibers.fptr)

    return cached_plan(x, ("lengths", mode), build)
