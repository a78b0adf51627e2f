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
from repro.parallel.backend import Backend, get_backend
from repro.sptensor.coo import COOTensor
from repro.sptensor.ghicoo import GHiCOOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.sptensor.scoo import SemiCOOTensor
from repro.sptensor.shicoo import SemiHiCOOTensor
from repro.kernels.contract import Access, declares_output
from repro.kernels.plans import fiber_plan
from repro.kernels.ttv import fiber_mode, fiber_reduce


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
) -> SemiCOOTensor:
    """COO-Ttm: output in sCOO format with dense mode ``mode`` of size R."""
    mode = fiber_mode(mode, x.nmodes)
    u = _check_matrix(x.shape, u, mode)
    backend = get_backend(backend)
    r = u.shape[1]
    other = [m for m in range(x.nmodes) if m != mode]
    out_shape = tuple(
        r if m == mode else x.shape[m] for m in range(x.nmodes)
    )
    dtype = np.result_type(x.values, u)

    # Pre-processing (sparse-dense property): fibers (cached, untimed) +
    # output allocation.
    perm, fib, _, _ = fiber_plan(x, mode)
    out_inds = x.indices[fib.heads][:, other]
    out_vals = np.zeros((len(fib.heads), r), dtype=dtype)

    # Timed loop: per-entry rank-R row scale, then per-fiber reduction.
    contrib = x.values[perm].astype(dtype, copy=False)[:, None] * u[fib.col, :]
    fiber_reduce(contrib, fib.fptr, out_vals, backend, "ttm", "coo")

    return SemiCOOTensor(out_shape, (mode,), out_inds, out_vals, check=False)


@declares_output(Access.DISJOINT)
def ghicoo_ttm(
    x: "GHiCOOTensor | HiCOOTensor",
    u: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
) -> SemiHiCOOTensor:
    """Ttm on a gHiCOO tensor with the product mode uncompressed (a HiCOO
    input is re-represented so by its cached fiber plan).

    Mirrors :func:`repro.kernels.ttv.ghicoo_ttv`: fibers are runs of equal
    block/element coordinates, the value loop is shared with COO-Ttm, and
    the output reuses the input's block structure in sHiCOO format.
    """
    mode = fiber_mode(mode, x.nmodes)
    u = _check_matrix(x.shape, u, mode)
    backend = get_backend(backend)
    _, fib, g, out_bptr = fiber_plan(x, mode)
    r = u.shape[1]
    out_shape = tuple(
        r if m == mode else g.shape[m] for m in range(g.nmodes)
    )
    dtype = np.result_type(g.values, u)
    out_vals = np.zeros((len(fib.heads), r), dtype=dtype)

    contrib = g.values.astype(dtype, copy=False)[:, None] * u[fib.col, :]
    fiber_reduce(contrib, fib.fptr, out_vals, backend, "ttm", "ghicoo")

    return SemiHiCOOTensor(
        out_shape,
        g.block_size,
        (mode,),
        out_bptr,
        g.binds,
        g.einds[fib.heads],
        out_vals,
        check=False,
    )


@declares_output(Access.DISJOINT)
def hicoo_ttm(
    x: HiCOOTensor,
    u: np.ndarray,
    mode: int,
    backend: "Backend | str | None" = None,
) -> SemiHiCOOTensor:
    """HiCOO-Ttm: gHiCOO re-representation (the cached pre-processing) +
    the shared loop of :func:`ghicoo_ttm`."""
    return ghicoo_ttm(x, u, mode, backend)
