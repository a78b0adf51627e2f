"""Matricized tensor times Khatri-Rao product (Mttkrp) — paper Sec. 2.5.

``U~(n) = X_(n) (U(N) ⊙ ... ⊙ U(n+1) ⊙ U(n-1) ⊙ ... ⊙ U(1))``.

Operationally on sparse data, for each non-zero ``x`` at coordinate
``(i_1, ..., i_N)`` and each rank column ``r``:

    out[i_n, r] += x * prod_{m != n} U(m)[i_m, r]

The Khatri-Rao product is never materialized (paper: doing so needs
redundant computation or extra storage).

COO-Mttkrp parallelizes over non-zeros and protects the output rows with
atomic adds (``omp atomic`` / CUDA ``atomicAdd``); HiCOO-Mttkrp (paper
Algorithm 2) parallelizes over tensor blocks, slicing the factor matrices
per block so rows are reused while a block's entries are processed.

Three update methods, each with one lowering that runs on every backend
(see :mod:`repro.kernels.plans`):

* ``method="atomic"`` (the paper's algorithm) and ``method="owner"`` —
  owner-computes: the output rows are split into one contiguous range per
  thread (:mod:`repro.parallel.ownership`), each thread gathers the
  contributions of the entries in its rows and adds them with one
  unbuffered ``np.add.at`` (the single-thread semantics of an atomic
  loop), in storage order.  Rows have one owner each, so no update
  races and the result is bit-identical to the sequential kernel.  The
  *performance model* still charges ``atomic`` for atomic behaviour, so
  the benchmark's reported characteristics match the paper's algorithm.
* ``method="sort"`` — sort updates by output row, segmented reduce (the
  lock-avoiding alternative the paper cites), over a segment plan cached
  on the tensor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_KERNEL, current_tracer
from repro.kernels.contract import Access, declares_output
from repro.kernels.plans import owner_plan, scatter_plan, scatter_rows
from repro.parallel.backend import Backend, get_backend
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.validation import check_mode

#: Update strategies shared by the COO and HiCOO kernels.
MTTKRP_METHODS = ("atomic", "sort", "owner")


def _check_matrices(shape, mats: Sequence[np.ndarray], mode: int) -> list:
    n = len(shape)
    if len(mats) != n:
        raise ShapeError(
            f"Mttkrp needs one matrix per mode ({n}), got {len(mats)} "
            "(the product-mode slot may be None)"
        )
    rank = None
    out = []
    for m in range(n):
        if m == mode:
            out.append(None)
            continue
        u = np.asarray(mats[m])
        if u.ndim != 2 or u.shape[0] != shape[m]:
            raise ShapeError(
                f"matrix {m} must be ({shape[m]}, R), got {u.shape}"
            )
        if rank is None:
            rank = u.shape[1]
        elif u.shape[1] != rank:
            raise ShapeError(
                f"all matrices must share R: matrix {m} has {u.shape[1]} "
                f"columns, expected {rank}"
            )
        out.append(u)
    if rank is None:
        raise ShapeError("Mttkrp needs at least one non-product mode matrix")
    return out


def _check_method(method: str) -> None:
    if method not in MTTKRP_METHODS:
        raise ValueError(
            f"unknown Mttkrp method {method!r}; expected one of {MTTKRP_METHODS}"
        )


def _row_contributions(
    cols: Sequence["np.ndarray | None"],
    values: np.ndarray,
    mats: Sequence,
    dtype,
    sel: "slice | np.ndarray" = slice(None),
) -> np.ndarray:
    """``contrib[k, :] = x_k * prod_{m != mode} U(m)[i_m(k), :]``.

    ``cols`` holds one canonical int64 index column per mode (``None`` at
    the product mode, whose matrix is also ``None``) so no per-call
    ``astype`` copies happen here.  ``sel`` picks the entries: a
    contiguous storage range, or an owner's index array when its entries
    are not contiguous in storage.
    """
    contrib = values[sel].astype(dtype, copy=True)[:, None]
    first = True
    for col, u in zip(cols, mats):
        if u is None:
            continue
        rows = u[col[sel], :]
        if first:
            contrib = contrib * rows
            first = False
        else:
            contrib *= rows
    return contrib


def _count_mttkrp(nnz: int, r: int, method: str) -> None:
    """Add one Mttkrp call's work to the ``kernel.*`` registry counters."""
    metrics = get_metrics()
    metrics.inc("kernel.nnz_processed", nnz)
    metrics.inc("kernel.flops", 3.0 * nnz * r)
    if method == "atomic":
        # The model charges the paper's algorithm: one scatter-add per
        # (entry, rank column), although row owners execute it.
        metrics.inc("kernel.atomics_issued", nnz * r)


def _mttkrp(x, rows, cols, mats, out, method: str, backend: Backend, tag) -> np.ndarray:
    """The one Mttkrp lowering over a prepared (rows, cols) entry stream.

    ``sort`` reduces each row's contributions pairwise over the tensor's
    cached segments.  ``atomic`` and ``owner`` run one ``map_ranges``
    range per output-row owner; each range scatters its own entries in
    storage order into rows no other range writes.  One thread owns every
    row: its range is ``[0, nnz)`` in storage order and no partition is
    built.
    """
    if method == "sort":
        contrib = _row_contributions(cols, x.values, mats, out.dtype)
        scatter_plan(x, rows, tag).reduce_segments(out, contrib)
        return out
    if backend.nthreads == 1:
        order, ranges = None, [(0, len(rows))]
    else:
        part = owner_plan(x, rows, out.shape[0], tag, backend.nthreads)
        order, ranges = part.order, part.entry_ranges()
    tracer = current_tracer()

    def body(lo: int, hi: int) -> None:
        if tracer.enabled:
            tracer.annotate(entries=hi - lo)
        sel = slice(lo, hi) if order is None else order[lo:hi]
        contrib = _row_contributions(cols, x.values, mats, out.dtype, sel)
        scatter_rows(out, rows[sel], contrib)

    with backend.check_output(out, Access.OWNER):
        backend.map_ranges(ranges, body)
    return out


@declares_output(by_method={
    "atomic": Access.OWNER,    # owner-computes ranges, np.add.at per owner
    "sort": Access.DISJOINT,   # segmented reduce writes each row once
    "owner": Access.OWNER,
})
def coo_mttkrp(
    x: COOTensor,
    mats: Sequence[np.ndarray],
    mode: int,
    backend: "Backend | str | None" = None,
    method: str = "atomic",
) -> np.ndarray:
    """COO-Mttkrp parallelized by output-row owners (ParTI's algorithm
    with the atomics replaced by row ownership).

    Parameters
    ----------
    mats:
        One ``(I_m, R)`` matrix per mode; the entry at ``mode`` is ignored
        (may be ``None``).
    method:
        ``"atomic"`` (the paper's algorithm, modeled with atomics) and
        ``"owner"`` — owner-computes row ranges, one per thread;
        ``"sort"`` — sort-by-output-row then segmented reduce.  Every
        method returns the same bits on every backend.

    Returns the updated dense matrix ``(I_mode, R)``.
    """
    mode = check_mode(mode, x.nmodes)
    mats = _check_matrices(x.shape, mats, mode)
    _check_method(method)
    backend = get_backend(backend)
    r = next(u.shape[1] for u in mats if u is not None)
    dtype = np.result_type(x.values, *[u for u in mats if u is not None])
    out = np.zeros((x.shape[mode], r), dtype=dtype)
    if x.nnz == 0:
        return out
    _count_mttkrp(x.nnz, r, method)
    tracer = current_tracer()
    with tracer.span(
        "mttkrp", cat=CAT_KERNEL, fmt="coo", mode=mode, method=method,
        backend=backend.name, nnz=x.nnz, rank=r,
    ):
        cols = [
            x.index_column(m) if mats[m] is not None else None
            for m in range(x.nmodes)
        ]
        rows = x.index_column(mode)
        return _mttkrp(x, rows, cols, mats, out, method, backend, tag=mode)


@declares_output(by_method={
    "atomic": Access.OWNER,
    "sort": Access.DISJOINT,
    "owner": Access.OWNER,
})
def hicoo_mttkrp(
    x: HiCOOTensor,
    mats: Sequence[np.ndarray],
    mode: int,
    backend: "Backend | str | None" = None,
    method: str = "atomic",
) -> np.ndarray:
    """HiCOO-Mttkrp (paper Algorithm 2) over the blocked entry stream.

    For each block ``b``, the factor matrices are sliced at the block
    offsets (``Ab = A + bi·B·R`` etc.) and the block's entries update the
    sliced output with 8-bit element indices — matrix rows are reused
    across the block, which is where HiCOO-Mttkrp's smaller memory traffic
    (Table 1) comes from.  Blocks may collide on output rows, so threads
    own output-row ranges, exactly like the COO kernel; a block whose
    rows straddle two ranges is shared by both owners.
    """
    mode = check_mode(mode, x.nmodes)
    mats = _check_matrices(x.shape, mats, mode)
    _check_method(method)
    backend = get_backend(backend)
    r = next(u.shape[1] for u in mats if u is not None)
    dtype = np.result_type(x.values, *[u for u in mats if u is not None])
    out = np.zeros((x.shape[mode], r), dtype=dtype)
    if x.nnz == 0:
        return out
    _count_mttkrp(x.nnz, r, method)
    tracer = current_tracer()
    with tracer.span(
        "mttkrp", cat=CAT_KERNEL, fmt="hicoo", mode=mode, method=method,
        backend=backend.name, nnz=x.nnz, rank=r, nblocks=x.nblocks,
    ):
        # Cached global coordinates: block offset + element offset, per mode.
        cols = [
            x.global_row(m) if mats[m] is not None else None
            for m in range(x.nmodes)
        ]
        rows = x.global_row(mode)
        return _mttkrp(x, rows, cols, mats, out, method, backend, tag=mode)
