"""Tensor element-wise operations (Tew) — paper Sec. 2.1 / 3.2.

``Z = X op Y`` applied per matching coordinate pair.  When both operands
share a non-zero pattern the kernel is a single vectorized loop over the
value arrays (the case the paper analyzes: OI = 1/12).  The general case
iterates both tensors and matches elements; we implement it as a sorted
merge on linearized coordinates, with the semantics:

* ``add`` / ``sub`` — union of patterns, missing entries treated as zero;
* ``mul``           — intersection of patterns (implicit zeros annihilate);
* ``div``           — intersection of patterns (an explicit entry divided
  by an implicit zero would densify the output with infinities; the suite,
  like the paper, only analyzes the matching-pattern case for Tew-div).

Pre-processing allocates the output tensor and its indices (the paper
counts this stage separately from the value computation it times).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PatternMismatchError
from repro.types import OpKind
from repro.kernels.contract import Access, declares_output
from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_KERNEL, current_tracer
from repro.parallel.backend import Backend, get_backend
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.validation import check_same_shape

_UFUNC = {
    OpKind.ADD: np.add,
    OpKind.SUB: np.subtract,
    OpKind.MUL: np.multiply,
    OpKind.DIV: np.divide,
}


def elementwise_values(
    xv: np.ndarray,
    yv: np.ndarray,
    op: OpKind,
    out: np.ndarray,
    backend: Backend,
) -> None:
    """The timed value-computation loop, chunked over the backend.

    Shared verbatim by COO and HiCOO (paper: "the value computation of
    HiCOO-Tew-OMP ... is the same with COO-Tew-OMP").  The sequential
    backend runs it as one whole-array ufunc call; chunking a ufunc never
    changes its results.
    """
    ufunc = _UFUNC[op]

    def body(lo: int, hi: int) -> None:
        ufunc(xv[lo:hi], yv[lo:hi], out=out[lo:hi])

    metrics = get_metrics()
    metrics.inc("kernel.nnz_processed", len(out))
    # One flop per non-zero, as in tew_cost.
    metrics.inc("kernel.flops", float(len(out)))

    # Chunks write disjoint slices of the value array by construction.
    with current_tracer().span(
        "tew", cat=CAT_KERNEL, backend=backend.name, nnz=len(out)
    ), backend.check_output(out, Access.DISJOINT):
        backend.parallel_for(len(out), body)


@declares_output(Access.DISJOINT)
def coo_tew(
    x: COOTensor,
    y: COOTensor,
    op: "OpKind | str" = OpKind.ADD,
    backend: "Backend | str | None" = None,
    assume_same_pattern: bool = False,
) -> COOTensor:
    """COO-Tew: element-wise op between two COO tensors.

    With ``assume_same_pattern=True`` the kernel skips the merge and pairs
    entries positionally (both tensors must be sorted identically); this is
    the configuration the paper benchmarks.
    """
    check_same_shape(x, y)
    op = OpKind.coerce(op)
    backend = get_backend(backend)

    if assume_same_pattern:
        if x.nnz != y.nnz:
            raise PatternMismatchError(
                f"same-pattern Tew requires equal nnz: {x.nnz} vs {y.nnz}"
            )
        out_vals = np.empty_like(
            x.values, dtype=np.result_type(x.values, y.values)
        )
        elementwise_values(x.values, y.values, op, out_vals, backend)
        out = COOTensor(x.shape, x.indices, out_vals, copy=True, check=False)
        out._sort_order = x.sort_order
        return out

    # Pre-processing: merge the patterns on linearized coordinates.
    lx, ly = x.linearize(), y.linearize()
    ox, oy = np.argsort(lx, kind="stable"), np.argsort(ly, kind="stable")
    lx, ly = lx[ox], ly[oy]
    xv, yv = x.values[ox], y.values[oy]
    dtype = np.result_type(x.values, y.values)

    if op in (OpKind.MUL, OpKind.DIV):
        common, ix, iy = np.intersect1d(lx, ly, return_indices=True)
        out_vals = np.empty(len(common), dtype=dtype)
        elementwise_values(xv[ix], yv[iy], op, out_vals, backend)
        out_inds = x.indices[ox][ix]
        out = COOTensor(x.shape, out_inds, out_vals, copy=False, check=False)
        out._sort_order = tuple(range(x.nmodes))
        return out

    # Union for add/sub.
    union = np.union1d(lx, ly)
    xvals = np.zeros(len(union), dtype=dtype)
    yvals = np.zeros(len(union), dtype=dtype)
    xvals[np.searchsorted(union, lx)] = xv
    yvals[np.searchsorted(union, ly)] = yv
    out_vals = np.empty(len(union), dtype=dtype)
    elementwise_values(xvals, yvals, op, out_vals, backend)
    out_inds = np.stack(np.unravel_index(union, x.shape), axis=1)
    out = COOTensor(x.shape, out_inds, out_vals, copy=False, check=False)
    out._sort_order = tuple(range(x.nmodes))
    return out


@declares_output(Access.DISJOINT)
def hicoo_tew(
    x: HiCOOTensor,
    y: HiCOOTensor,
    op: "OpKind | str" = OpKind.ADD,
    backend: "Backend | str | None" = None,
    assume_same_pattern: bool = False,
) -> HiCOOTensor:
    """HiCOO-Tew: identical value loop; pre-processing builds the output in
    HiCOO rather than COO format (paper Sec. 3.4.1)."""
    check_same_shape(x, y)
    op = OpKind.coerce(op)
    backend = get_backend(backend)
    if assume_same_pattern or _same_hicoo_pattern(x, y):
        out_vals = np.empty_like(
            x.values, dtype=np.result_type(x.values, y.values)
        )
        if assume_same_pattern and x.nnz != y.nnz:
            raise PatternMismatchError(
                f"same-pattern Tew requires equal nnz: {x.nnz} vs {y.nnz}"
            )
        elementwise_values(x.values, y.values, op, out_vals, backend)
        return HiCOOTensor(
            x.shape, x.block_size, x.bptr, x.binds, x.einds, out_vals,
            check=False,
        )
    merged = coo_tew(x.to_coo(), y.to_coo(), op, backend)
    return HiCOOTensor.from_coo(merged, x.block_size)


def _same_hicoo_pattern(x: HiCOOTensor, y: HiCOOTensor) -> bool:
    """Cheap structural equality check enabling the in-format fast path."""
    return (
        x.block_size == y.block_size
        and x.nnz == y.nnz
        and x.nblocks == y.nblocks
        and np.array_equal(x.bptr, y.bptr)
        and np.array_equal(x.binds, y.binds)
        and np.array_equal(x.einds, y.einds)
    )
