"""Tensor-scalar operations (Ts) — paper Sec. 2.2 / 3.2.

``Y = X op s`` applied to the *non-zero values* of ``X`` only (the sparse
convention: implicit zeros stay implicit, so Tsa is an operation on the
stored pattern, not a densifying shift).  The paper implements Tsa and Tsm
as representatives — they suffice to express all four ops — and notes Ts
has the suite's highest-traffic-efficiency loop: 1 flop per 8 bytes.

The output pattern equals the input pattern, so pre-processing is a plain
index copy and the timed loop is a single vectorized pass over values,
identical for COO and HiCOO.
"""

from __future__ import annotations

import numpy as np

from repro.types import OpKind
from repro.kernels.contract import Access, declares_output
from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_KERNEL, current_tracer
from repro.parallel.backend import Backend, get_backend
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor

_SCALAR_UFUNC = {
    OpKind.ADD: np.add,
    OpKind.SUB: np.subtract,
    OpKind.MUL: np.multiply,
    OpKind.DIV: np.divide,
}


def scalar_values(
    xv: np.ndarray,
    s: float,
    op: OpKind,
    out: np.ndarray,
    backend: Backend,
) -> None:
    """The timed value loop: ``out = xv op s`` in backend-sized chunks
    (one whole-array ufunc call on the sequential backend)."""
    ufunc = _SCALAR_UFUNC[op]

    def body(lo: int, hi: int) -> None:
        ufunc(xv[lo:hi], s, out=out[lo:hi])

    metrics = get_metrics()
    metrics.inc("kernel.nnz_processed", len(out))
    # One flop per non-zero, as in ts_cost.
    metrics.inc("kernel.flops", float(len(out)))

    # Chunks write disjoint slices of the value array by construction.
    with current_tracer().span(
        "ts", cat=CAT_KERNEL, backend=backend.name, nnz=len(out)
    ), backend.check_output(out, Access.DISJOINT):
        backend.parallel_for(len(out), body)


@declares_output(Access.DISJOINT)
def coo_ts(
    x: COOTensor,
    s: float,
    op: "OpKind | str" = OpKind.MUL,
    backend: "Backend | str | None" = None,
) -> COOTensor:
    """COO-Ts: scalar op over the stored values."""
    op = OpKind.coerce(op)
    if op is OpKind.DIV and s == 0:
        raise ZeroDivisionError("tensor-scalar division by zero")
    backend = get_backend(backend)
    out_vals = np.empty_like(x.values)
    scalar_values(x.values, x.values.dtype.type(s), op, out_vals, backend)
    out = COOTensor(x.shape, x.indices, out_vals, copy=True, check=False)
    out._sort_order = x.sort_order
    return out


@declares_output(Access.DISJOINT)
def hicoo_ts(
    x: HiCOOTensor,
    s: float,
    op: "OpKind | str" = OpKind.MUL,
    backend: "Backend | str | None" = None,
) -> HiCOOTensor:
    """HiCOO-Ts: identical value loop; output pre-allocated in HiCOO."""
    op = OpKind.coerce(op)
    if op is OpKind.DIV and s == 0:
        raise ZeroDivisionError("tensor-scalar division by zero")
    backend = get_backend(backend)
    out_vals = np.empty_like(x.values)
    scalar_values(x.values, x.values.dtype.type(s), op, out_vals, backend)
    return HiCOOTensor(
        x.shape,
        x.block_size,
        x.bptr.copy(),
        x.binds.copy(),
        x.einds.copy(),
        out_vals,
        check=False,
    )
