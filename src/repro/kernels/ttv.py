"""Tensor-times-vector (Ttv) — paper Sec. 2.3, Algorithm 1.

``Y = X ×_n v`` contracts mode ``n`` of a sparse tensor with a dense
vector, producing an order-(N-1) sparse tensor.  By the *sparse-dense
property* (Li et al., IA^3'16) the contracted mode disappears and every
other mode keeps the input's sparsity, so the output — one non-zero per
mode-``n`` fiber — can be pre-allocated before the timed loop.  That is
what enables race-free fiber parallelism (paper Algorithm 1): the
pre-processing stage records the ``MF`` fiber start offsets ``fptr``; the
parallel loop then reduces each fiber independently.

This module also holds the fiber lowering Ttv and Ttm (sCOO-Ttm too)
share on every format: :func:`fiber_mode` validates the product mode,
:func:`sorted_fibers` forms the fibers of a sorted entry stream (which
:func:`coo_fibers` and :func:`ghicoo_fibers` produce per format),
:func:`fiber_ghicoo` is the HiCOO pre-processing step, and
:func:`fiber_reduce` is the one timed loop.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_KERNEL, current_tracer
from repro.kernels.contract import Access, declares_output
from repro.parallel.backend import Backend, get_backend
from repro.sptensor.coo import COOTensor
from repro.sptensor.ghicoo import GHiCOOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.validation import check_mode


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


def _check_vector(x_shape, v: np.ndarray, mode: int) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1 or v.shape[0] != x_shape[mode]:
        raise ShapeError(
            f"vector must have shape ({x_shape[mode]},) for mode {mode}, "
            f"got {v.shape}"
        )
    return v


def fiber_mode(mode: int, nmodes: int) -> int:
    """Validate the product mode of a fiber kernel (Ttv or Ttm)."""
    mode = check_mode(mode, nmodes)
    if nmodes < 2:
        raise ShapeError(
            "Ttv/Ttm need an order >= 2 tensor (the product mode is "
            "contracted away)"
        )
    return mode


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
    if order is None:
        return Fibers(fptr, starts, col.astype(np.int64, copy=False))
    return Fibers(fptr, order[starts], col[order])


def coo_fibers(x: COOTensor, mode: int) -> tuple[np.ndarray, Fibers]:
    """COO pre-processing: sort with ``mode`` varying fastest, form fibers.

    Returns the sort permutation and the fibers of the sorted stream.
    """
    rest = [m for m in range(x.nmodes) if m != mode]
    lin = x.linearize(rest + [mode])
    perm = np.argsort(lin, kind="stable")
    rest_key = lin[perm] // np.int64(x.shape[mode])
    return perm, sorted_fibers((rest_key,), x.index_column(mode), perm)


def ghicoo_fibers(x: GHiCOOTensor, mode: int) -> tuple[np.ndarray, Fibers]:
    """gHiCOO pre-processing: fibers are runs of equal (block, element
    coordinates), since entries are block- then element-ordered and only
    the product mode is uncompressed — so no fiber spans blocks.

    Returns each block's first fiber (the ``bptr`` of an output that
    keeps the input's blocks) and the fibers of the storage stream.
    """
    if x.uncompressed_modes != (mode,):
        raise ShapeError(
            f"gHiCOO Ttv/Ttm expect exactly the product mode {mode} "
            f"uncompressed, got uncompressed modes {x.uncompressed_modes}"
        )
    bid = np.repeat(np.arange(x.nblocks, dtype=np.int64), np.diff(x.bptr))
    fib = sorted_fibers((bid,) + tuple(x.einds.T), x.uncompressed_column(mode))
    return np.searchsorted(fib.heads, x.bptr).astype(np.int64), fib


def fiber_ghicoo(x: HiCOOTensor, mode: int) -> GHiCOOTensor:
    """HiCOO pre-processing of Ttv/Ttm: re-represent ``x`` as gHiCOO with
    only the product mode uncompressed (paper Sec. 3.4.1)."""
    mode = fiber_mode(mode, x.nmodes)
    comp = tuple(m for m in range(x.nmodes) if m != mode)
    return GHiCOOTensor.from_coo(x.to_coo(), x.block_size, comp)


def fiber_reduce(
    contrib: np.ndarray,
    fptr: np.ndarray,
    out: np.ndarray,
    backend: Backend,
    kernel: str,
    fmt: str,
) -> None:
    """Reduce contiguous fiber segments of ``contrib`` into ``out``.

    ``out[f] = sum(contrib[fptr[f]:fptr[f+1]])`` — the timed loop of
    Algorithm 1, parallelized over fibers with the backend's static
    schedule (one near-equal fiber range per thread).  Different fibers
    touch disjoint output entries, so the loop is race-free by
    construction.  The sequential backend runs one chunk, a whole-array
    ``reduceat``; a fiber's sum depends only on its own entries, so every
    backend agrees bit for bit.

    ``kernel``/``fmt`` label the trace span the loop records when a
    tracer is installed (Ttv and Ttm share this timed loop).
    """
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
    # output column — Ttv has one column, Ttm R, sCOO-Ttm |D|·R.
    metrics.inc("kernel.flops", 2.0 * nnz * ncols)

    # Different fibers write disjoint output entries — the contract the
    # race-check backend verifies on every replayed decomposition.
    with tracer.span(
        kernel, cat=CAT_KERNEL, fmt=fmt,
        backend=backend.name, nfibers=nf, nnz=nnz,
    ):
        with backend.check_output(out, Access.DISJOINT):
            backend.parallel_for(nf, body)


@declares_output(Access.DISJOINT)
def coo_ttv(
    x: COOTensor,
    v: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
) -> COOTensor:
    """COO-Ttv (paper Algorithm 1): output in COO format, order N-1."""
    mode = fiber_mode(mode, x.nmodes)
    v = _check_vector(x.shape, v, mode)
    backend = get_backend(backend)
    other = [m for m in range(x.nmodes) if m != mode]
    out_shape = tuple(x.shape[m] for m in other)

    # Pre-processing: fiber pointers + output allocation (untimed).
    perm, fib = coo_fibers(x, mode)
    dtype = np.result_type(x.values, v)
    out_vals = np.zeros(len(fib.heads), dtype=dtype)
    out_inds = x.indices[fib.heads][:, other]

    # Timed loop: scale by the gathered vector entries, reduce per fiber.
    contrib = x.values[perm].astype(dtype, copy=False) * v[fib.col]
    fiber_reduce(contrib, fib.fptr, out_vals, backend, "ttv", "coo")

    return COOTensor(out_shape, out_inds, out_vals, copy=False, check=False)


@declares_output(Access.DISJOINT)
def ghicoo_ttv(
    x: GHiCOOTensor,
    v: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
) -> HiCOOTensor:
    """Ttv on a gHiCOO tensor whose product mode is left *uncompressed*.

    Because blocks are formed over exactly the non-product modes, a fiber
    never spans blocks and the blocked structure passes straight through to
    the output (paper Sec. 3.4.1: "Ttv and Ttm can bypass the blocking
    nature of HiCOO and be performed without data race between blocks").
    The output is a HiCOO tensor of order N-1 sharing the input's block
    coordinates.
    """
    mode = fiber_mode(mode, x.nmodes)
    out_bptr, fib = ghicoo_fibers(x, mode)
    v = _check_vector(x.shape, v, mode)
    backend = get_backend(backend)
    out_shape = tuple(x.shape[mm] for mm in x.compressed_modes)
    dtype = np.result_type(x.values, v)
    if x.nnz == 0:
        return HiCOOTensor.from_coo(COOTensor.empty(out_shape, dtype), x.block_size)
    out_vals = np.zeros(len(fib.heads), dtype=dtype)

    # Timed loop: identical value computation to COO-Ttv.
    contrib = x.values.astype(dtype, copy=False) * v[fib.col]
    fiber_reduce(contrib, fib.fptr, out_vals, backend, "ttv", "ghicoo")

    # Assemble the HiCOO output reusing the input's block structure.
    out = HiCOOTensor(
        out_shape, x.block_size, out_bptr, x.binds, x.einds[fib.heads],
        out_vals, check=False,
    )
    return _drop_empty_blocks(out)


@declares_output(Access.DISJOINT)
def hicoo_ttv(
    x: HiCOOTensor,
    v: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
) -> HiCOOTensor:
    """HiCOO-Ttv: re-represent as gHiCOO with the product mode uncompressed
    (pre-processing, as in the paper), then run the shared value loop."""
    return ghicoo_ttv(fiber_ghicoo(x, mode), v, mode, backend)


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
