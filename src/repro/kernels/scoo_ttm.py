"""Ttm on semi-sparse (sCOO) inputs — the Tucker-chain step.

After one Ttm, the tensor is semi-sparse (one dense mode); the next Ttm of
a TTM-chain contracts a *sparse* mode of that sCOO tensor.  Expanding back
to COO multiplies the non-zero count by the dense block size; this kernel
instead works on the sCOO representation directly: fibers are formed over
the sparse coordinates only, and each entry contributes the outer product
of its dense value block with its matrix row — so the output's dense block
gains one axis (the new R-sized mode) and the sparse structure shrinks by
one mode, exactly the sparse-dense property applied again.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.kernels.ttv import fiber_reduce, sorted_fibers
from repro.parallel.backend import get_backend
from repro.sptensor.coo import COOTensor
from repro.sptensor.scoo import SemiCOOTensor
from repro.util.validation import check_mode


def scoo_ttm(
    x: SemiCOOTensor,
    u: np.ndarray,
    mode: int,
) -> SemiCOOTensor:
    """Ttm of a semi-sparse tensor along one of its *sparse* modes.

    ``u`` is ``(I_mode, R)``; the result keeps the remaining sparse modes,
    its dense modes are the input's plus ``mode`` (with size R), and the
    dense value blocks gain the corresponding axis.
    """
    mode = check_mode(mode, x.nmodes)
    if mode in x.dense_modes:
        raise FormatError(
            f"mode {mode} is already dense; contract a sparse mode "
            f"(sparse modes: {x.sparse_modes})"
        )
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != x.shape[mode]:
        raise ShapeError(
            f"matrix must be ({x.shape[mode]}, R), got {u.shape}"
        )
    if len(x.sparse_modes) < 2:
        raise FormatError(
            "contracting the last sparse mode would densify the tensor; "
            "use to_dense() or ttm_chain's final step instead"
        )
    r = u.shape[1]
    sp_col = x.sparse_modes.index(mode)
    keep_cols = [j for j in range(len(x.sparse_modes)) if j != sp_col]

    # Sort entries so rows sharing the kept sparse coordinates are
    # contiguous, with the contracted mode varying fastest.
    inds = x.indices.astype(np.int64)
    key = np.zeros(x.nnz_sparse, dtype=np.int64)
    for j in keep_cols:
        key = key * np.int64(x.shape[x.sparse_modes[j]]) + inds[:, j]
    key = key * np.int64(x.shape[mode]) + inds[:, sp_col]
    order = np.argsort(key, kind="stable")
    fib = sorted_fibers((key[order] // np.int64(x.shape[mode]),), inds[:, sp_col], order)

    dtype = np.result_type(x.values, u)
    # contrib: dense block (M, *D) ⊗ matrix row (M, R) -> (M, *D, R)
    rows = u[fib.col, :].astype(dtype)
    contrib = x.values[order].astype(dtype)[..., None] * rows.reshape(
        (x.nnz_sparse,) + (1,) * (x.values.ndim - 1) + (r,)
    )
    out_vals = np.zeros((len(fib.heads),) + contrib.shape[1:], dtype=dtype)
    fiber_reduce(contrib, fib.fptr, out_vals, get_backend(None), "ttm", "scoo")

    out_shape = tuple(
        r if m == mode else s for m, s in enumerate(x.shape)
    )
    out_dense_modes = tuple(sorted(x.dense_modes + (mode,)))
    out_inds = inds[fib.heads][:, keep_cols]
    # The value block axes must follow increasing dense-mode order; the
    # new axis currently sits last — move it to its sorted position.
    new_pos = out_dense_modes.index(mode)
    out_vals = np.moveaxis(out_vals, -1, 1 + new_pos)
    return SemiCOOTensor(
        out_shape, out_dense_modes, out_inds, out_vals, check=False
    )


def scoo_ttm_chain(
    tensor: COOTensor,
    mats,
    modes,
) -> SemiCOOTensor:
    """TTM-chain staying in semi-sparse form throughout.

    The first Ttm uses the COO kernel; every subsequent contraction runs
    :func:`scoo_ttm` on the semi-sparse intermediate — no expansion back
    to COO, so the sparse coordinate count only shrinks along the chain.
    Requires at least one mode to remain uncontracted.
    """
    from repro.kernels.ttm import coo_ttm

    modes = [check_mode(m, tensor.nmodes) for m in modes]
    if len(set(modes)) != len(modes):
        raise ShapeError(f"duplicate modes in chain: {modes}")
    if len(mats) != len(modes):
        raise ShapeError("one matrix per contracted mode")
    if len(modes) >= tensor.nmodes:
        raise ShapeError(
            "semi-sparse chain must leave at least one sparse mode; "
            "contract the final mode via to_dense()"
        )
    semi = coo_ttm(tensor, np.asarray(mats[0]), modes[0])
    for u, mode in zip(mats[1:], modes[1:]):
        semi = scoo_ttm(semi, np.asarray(u), mode)
    return semi
