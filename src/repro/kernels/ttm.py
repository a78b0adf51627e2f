"""Tensor-times-matrix (Ttm) — paper Sec. 2.4 / 3.2.

``Y = X ×_n U`` with ``U ∈ R^{I_n × R}`` (the paper transposes Kolda &
Bader's convention so the R-sized mode is the matrix's second, which walks
rows contiguously under C row-major storage).  By the sparse-dense
property the output's mode ``n`` becomes *dense* with size R while every
other mode keeps the input's sparsity — hence the output is a semi-sparse
tensor, stored in sCOO (for COO-Ttm) or sHiCOO (for HiCOO-Ttm).

The algorithm is COO-Ttv with a vector of R columns: pre-process fibers,
then reduce ``value ⊗ U[k, :]`` per fiber.  Parallelism is over fibers and
race-free; imbalance comes from fiber lengths, as in Ttv.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.types import Schedule
from repro.parallel.backend import Backend, get_backend
from repro.sptensor.coo import COOTensor
from repro.sptensor.ghicoo import GHiCOOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.sptensor.scoo import SemiCOOTensor
from repro.sptensor.shicoo import SemiHiCOOTensor
from repro.kernels.contract import Access, declares_output
from repro.kernels.ttv import check_fiber_args, fiber_reduce
from repro.util.validation import check_mode


def _check_matrix(x_shape, u: np.ndarray, mode: int) -> np.ndarray:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != x_shape[mode]:
        raise ShapeError(
            f"matrix must have shape ({x_shape[mode]}, R) for mode {mode}, "
            f"got {u.shape}"
        )
    return u


@declares_output(Access.DISJOINT)
def coo_ttm(
    x: COOTensor,
    u: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
    schedule: "Schedule | str" = Schedule.STATIC,
    partition: str = "uniform",
) -> SemiCOOTensor:
    """COO-Ttm: output in sCOO format with dense mode ``mode`` of size R."""
    check_fiber_args(schedule, partition)
    mode = check_mode(mode, x.nmodes)
    u = _check_matrix(x.shape, u, mode)
    backend = get_backend(backend)
    r = u.shape[1]
    other = [m for m in range(x.nmodes) if m != mode]
    out_shape = tuple(
        r if m == mode else x.shape[m] for m in range(x.nmodes)
    )
    dtype = np.result_type(x.values, u)

    # Pre-processing (sparse-dense property): fibers + output allocation.
    fi = x.fiber_index(mode)
    perm = fi.order
    idx_n = x.index_column(mode)[perm]
    vals = x.values[perm].astype(dtype, copy=False)
    heads = perm[fi.fptr[:-1]]
    out_inds = x.indices[heads][:, other]
    out_vals = np.zeros((fi.nfibers, r), dtype=dtype)

    # Timed loop: per-entry rank-R row scale, then per-fiber reduction.
    contrib = vals[:, None] * u[idx_n, :]
    fiber_reduce(
        contrib, fi.fptr, out_vals, backend, schedule, partition,
        kernel="ttm", fmt="coo",
    )

    return SemiCOOTensor(out_shape, (mode,), out_inds, out_vals, check=False)


@declares_output(Access.DISJOINT)
def ghicoo_ttm(
    x: GHiCOOTensor,
    u: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
    schedule: "Schedule | str" = Schedule.STATIC,
    partition: str = "uniform",
) -> SemiHiCOOTensor:
    """Ttm on a gHiCOO tensor with the product mode uncompressed.

    Mirrors :func:`repro.kernels.ttv.ghicoo_ttv`: fibers are runs of equal
    block/element coordinates, the value loop is shared with COO-Ttm, and
    the output reuses the input's block structure in sHiCOO format.
    """
    check_fiber_args(schedule, partition)
    mode = check_mode(mode, x.nmodes)
    if x.uncompressed_modes != (mode,):
        raise ShapeError(
            "gHiCOO-Ttm expects exactly the product mode uncompressed, got "
            f"uncompressed modes {x.uncompressed_modes}"
        )
    u = _check_matrix(x.shape, u, mode)
    backend = get_backend(backend)
    r = u.shape[1]
    out_shape = tuple(
        r if m == mode else x.shape[m] for m in range(x.nmodes)
    )
    dtype = np.result_type(x.values, u)
    m = x.nnz
    if m == 0:
        ns = len(x.compressed_modes)
        return SemiHiCOOTensor(
            out_shape,
            x.block_size,
            (mode,),
            np.zeros(1, dtype=np.int64),
            np.empty((0, ns), dtype=x.binds.dtype),
            np.empty((0, ns), dtype=x.einds.dtype),
            np.empty((0, r), dtype=dtype),
            check=False,
        )

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
    out_vals = np.zeros((nf, r), dtype=dtype)

    idx_n = x.uncompressed_column(mode).astype(np.int64)
    contrib = x.values.astype(dtype, copy=False)[:, None] * u[idx_n, :]
    fiber_reduce(
        contrib, fptr, out_vals, backend, schedule, partition,
        kernel="ttm", fmt="ghicoo",
    )

    fiber_bid = bid[starts]
    out_bptr = np.searchsorted(fiber_bid, np.arange(x.nblocks + 1)).astype(np.int64)
    return SemiHiCOOTensor(
        out_shape,
        x.block_size,
        (mode,),
        out_bptr,
        x.binds,
        x.einds[starts],
        out_vals,
        check=False,
    )


@declares_output(Access.DISJOINT)
def hicoo_ttm(
    x: HiCOOTensor,
    u: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
    schedule: "Schedule | str" = Schedule.STATIC,
    partition: str = "uniform",
) -> SemiHiCOOTensor:
    """HiCOO-Ttm: gHiCOO re-representation (pre-processing) + shared loop."""
    check_fiber_args(schedule, partition)
    mode = check_mode(mode, x.nmodes)
    comp = tuple(m for m in range(x.nmodes) if m != mode)
    g = GHiCOOTensor.from_coo(x.to_coo(), x.block_size, comp)
    return ghicoo_ttm(g, u, mode, backend, schedule, partition)
