"""Tensor-times-vector (Ttv) — paper Sec. 2.3, Algorithm 1.

``Y = X ×_n v`` contracts mode ``n`` of a sparse tensor with a dense
vector, producing an order-(N-1) sparse tensor.  By the *sparse-dense
property* (Li et al., IA^3'16) the contracted mode disappears and every
other mode keeps the input's sparsity, so the output — one non-zero per
mode-``n`` fiber — can be pre-allocated before the timed loop.  That is
what enables race-free fiber parallelism (paper Algorithm 1): the
pre-processing stage records the ``MF`` fiber start offsets ``fptr``; the
parallel loop then reduces each fiber independently.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.types import Schedule
from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_KERNEL, current_tracer
from repro.kernels.contract import Access, declares_output
from repro.parallel.backend import Backend, get_backend
from repro.parallel.partition import balanced_partition
from repro.sptensor.coo import COOTensor
from repro.sptensor.ghicoo import GHiCOOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.validation import check_mode

#: Fiber-range partitions of the Ttv/Ttm loop.
FIBER_PARTITIONS = ("uniform", "balanced")


def check_fiber_args(schedule: "Schedule | str", partition: str) -> None:
    """Reject an unknown schedule or partition before any work runs."""
    Schedule.coerce(schedule)
    if partition not in FIBER_PARTITIONS:
        raise ValueError(
            f"unknown fiber partition {partition!r}; "
            f"expected one of {FIBER_PARTITIONS}"
        )


def _check_vector(x_shape, v: np.ndarray, mode: int) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1 or v.shape[0] != x_shape[mode]:
        raise ShapeError(
            f"vector must have shape ({x_shape[mode]},) for mode {mode}, "
            f"got {v.shape}"
        )
    return v


def fiber_reduce(
    contrib: np.ndarray,
    fptr: np.ndarray,
    out: np.ndarray,
    backend: Backend,
    schedule: "Schedule | str" = Schedule.STATIC,
    partition: str = "uniform",
    kernel: str = "fiber_reduce",
    fmt: str = "coo",
) -> None:
    """Reduce contiguous fiber segments of ``contrib`` into ``out``.

    ``out[f] = sum(contrib[fptr[f]:fptr[f+1]])`` — the timed loop of
    Algorithm 1, parallelized over fibers.  Different fibers touch disjoint
    output entries, so the loop is race-free by construction; the only
    hazard is load imbalance from unequal fiber lengths.  With
    ``partition="uniform"`` the backend schedule splits the loop by fiber
    *count*; ``partition="balanced"`` instead pre-cuts one contiguous fiber
    range per thread with near-equal *non-zero* totals (the owner-computes
    analogue for fiber-parallel kernels — the mitigation for the skew the
    paper's Observation 4 calls out).  The sequential backend runs one
    chunk, a whole-array ``reduceat``; a fiber's sum depends only on its
    own entries, so every backend agrees bit for bit.

    ``kernel``/``fmt`` label the trace span the loop records when a
    tracer is installed (Ttv and Ttm share this timed loop).
    """
    check_fiber_args(schedule, partition)
    nf = len(fptr) - 1
    nnz = len(contrib)
    ncols = int(np.prod(contrib.shape[1:], dtype=np.int64)) if contrib.ndim > 1 else 1
    tracer = current_tracer()

    def body(flo: int, fhi: int) -> None:
        if fhi <= flo:
            return
        if tracer.enabled:
            # Enrich the backend's chunk span with the fiber range's
            # entry count — the quantity load imbalance is made of.
            tracer.annotate(entries=int(fptr[fhi] - fptr[flo]), fibers=fhi - flo)
        seg = contrib[fptr[flo]:fptr[fhi]]
        starts = (fptr[flo:fhi] - fptr[flo]).astype(np.int64)
        out[flo:fhi] = np.add.reduceat(seg, starts, axis=0)

    metrics = get_metrics()
    metrics.inc("kernel.nnz_processed", nnz)
    # One multiply (gathered operand scale) and one add per entry and
    # rank column — Ttv has one column, Ttm has R.
    metrics.inc("kernel.flops", 2.0 * nnz * ncols)

    # Different fibers write disjoint output entries — the contract the
    # race-check backend verifies on every replayed decomposition.
    with tracer.span(
        kernel, cat=CAT_KERNEL, fmt=fmt, partition=partition,
        backend=backend.name, nfibers=nf, nnz=nnz,
    ):
        with backend.check_output(out, Access.DISJOINT):
            if partition == "balanced":
                ranges = balanced_partition(np.diff(fptr), backend.nthreads)
                backend.map_ranges(ranges, body)
            else:
                backend.parallel_for(nf, body, schedule=schedule)


@declares_output(Access.DISJOINT)
def coo_ttv(
    x: COOTensor,
    v: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
    schedule: "Schedule | str" = Schedule.STATIC,
    partition: str = "uniform",
) -> COOTensor:
    """COO-Ttv (paper Algorithm 1): output in COO format, order N-1."""
    check_fiber_args(schedule, partition)
    mode = check_mode(mode, x.nmodes)
    if x.nmodes < 2:
        raise ShapeError("Ttv needs an order >= 2 tensor (output loses a mode)")
    v = _check_vector(x.shape, v, mode)
    backend = get_backend(backend)
    other = [m for m in range(x.nmodes) if m != mode]
    out_shape = tuple(x.shape[m] for m in other)

    # Pre-processing: fiber pointers + output allocation (untimed).
    fi = x.fiber_index(mode)
    perm = fi.order
    idx_n = x.index_column(mode)[perm]
    vals = x.values[perm]
    dtype = np.result_type(x.values, v)
    out_vals = np.zeros(fi.nfibers, dtype=dtype)
    heads = perm[fi.fptr[:-1]]
    out_inds = x.indices[heads][:, other]

    # Timed loop: scale by the gathered vector entries, reduce per fiber.
    contrib = vals.astype(dtype, copy=False) * v[idx_n]
    fiber_reduce(
        contrib, fi.fptr, out_vals, backend, schedule, partition,
        kernel="ttv", fmt="coo",
    )

    out = COOTensor(out_shape, out_inds, out_vals, copy=False, check=False)
    return out


@declares_output(Access.DISJOINT)
def ghicoo_ttv(
    x: GHiCOOTensor,
    v: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
    schedule: "Schedule | str" = Schedule.STATIC,
    partition: str = "uniform",
    block_size: int | None = None,
) -> HiCOOTensor:
    """Ttv on a gHiCOO tensor whose product mode is left *uncompressed*.

    Because blocks are formed over exactly the non-product modes, a fiber
    never spans blocks and the blocked structure passes straight through to
    the output (paper Sec. 3.4.1: "Ttv and Ttm can bypass the blocking
    nature of HiCOO and be performed without data race between blocks").
    The output is a HiCOO tensor of order N-1 sharing the input's block
    coordinates.
    """
    check_fiber_args(schedule, partition)
    mode = check_mode(mode, x.nmodes)
    if mode in x.compressed_modes:
        raise ShapeError(
            f"gHiCOO-Ttv requires the product mode {mode} to be uncompressed; "
            f"compressed modes are {x.compressed_modes}"
        )
    if x.uncompressed_modes != (mode,):
        raise ShapeError(
            "gHiCOO-Ttv expects exactly the product mode uncompressed, got "
            f"uncompressed modes {x.uncompressed_modes}"
        )
    v = _check_vector(x.shape, v, mode)
    backend = get_backend(backend)
    bsz = block_size or x.block_size

    m = x.nnz
    out_shape = tuple(x.shape[mm] for mm in x.compressed_modes)
    dtype = np.result_type(x.values, v)
    if m == 0:
        return HiCOOTensor.from_coo(COOTensor.empty(out_shape, dtype), bsz)

    # Pre-processing: fibers are runs of equal (block, element-coords);
    # entries are already block- then element-ordered by construction.
    bid = np.repeat(np.arange(x.nblocks, dtype=np.int64), np.diff(x.bptr))
    ekey = np.zeros(m, dtype=np.int64)
    for d in range(x.einds.shape[1]):
        ekey = ekey * 256 + x.einds[:, d].astype(np.int64)
    change = np.zeros(m, dtype=bool)
    change[0] = True
    change[1:] = (np.diff(bid) != 0) | (np.diff(ekey) != 0)
    starts = np.flatnonzero(change)
    fptr = np.concatenate((starts, [m])).astype(np.int64)
    nf = len(starts)
    out_vals = np.zeros(nf, dtype=dtype)

    # Timed loop: identical value computation to COO-Ttv.
    idx_n = x.uncompressed_column(mode).astype(np.int64)
    contrib = x.values.astype(dtype, copy=False) * v[idx_n]
    fiber_reduce(
        contrib, fptr, out_vals, backend, schedule, partition,
        kernel="ttv", fmt="ghicoo",
    )

    # Assemble the HiCOO output reusing the input's block structure.
    out_binds = x.binds
    fiber_bid = bid[starts]
    out_bptr = np.searchsorted(fiber_bid, np.arange(x.nblocks + 1)).astype(np.int64)
    out_einds = x.einds[starts]
    out = HiCOOTensor(
        out_shape, x.block_size, out_bptr, out_binds, out_einds, out_vals,
        check=False,
    )
    return _drop_empty_blocks(out)


@declares_output(Access.DISJOINT)
def hicoo_ttv(
    x: HiCOOTensor,
    v: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
    schedule: "Schedule | str" = Schedule.STATIC,
    partition: str = "uniform",
) -> HiCOOTensor:
    """HiCOO-Ttv: re-represent as gHiCOO with the product mode uncompressed
    (pre-processing, as in the paper), then run the shared value loop."""
    check_fiber_args(schedule, partition)
    mode = check_mode(mode, x.nmodes)
    comp = tuple(m for m in range(x.nmodes) if m != mode)
    g = GHiCOOTensor.from_coo(x.to_coo(), x.block_size, comp)
    return ghicoo_ttv(g, v, mode, backend, schedule, partition)


def _drop_empty_blocks(t: HiCOOTensor) -> HiCOOTensor:
    """Remove blocks whose fiber runs reduced to zero entries."""
    nnzb = np.diff(t.bptr)
    keep = nnzb > 0
    if keep.all():
        return t
    new_bptr = np.concatenate(([0], np.cumsum(nnzb[keep]))).astype(np.int64)
    return HiCOOTensor(
        t.shape, t.block_size, new_bptr, t.binds[keep], t.einds, t.values,
        check=False,
    )
