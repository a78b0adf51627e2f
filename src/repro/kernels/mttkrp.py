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

NumPy notes: ``np.add.at`` is the race-free scatter-add primitive — it is
the single-thread semantics of an atomic loop.  Three update strategies
make the multi-threaded kernels race-free:

* ``method="atomic"`` — each worker thread accumulates into a private
  arena from a shared :class:`~repro.parallel.workspace.WorkspacePool`
  (one buffer per *thread*, reused across every chunk it runs) and the
  arenas are tree-reduced into the output once.  The *performance model*
  still charges the kernel for atomic behaviour, so the benchmark's
  reported characteristics match the paper's algorithm.
* ``method="sort"`` — sort updates by output row, segmented reduce (the
  lock-avoiding alternative the paper cites).
* ``method="owner"`` — owner-computes: non-zeros (or HiCOO blocks) are
  pre-bucketed by disjoint output-row ranges so each thread owns a slice
  of ``out`` and needs no privatization or atomics at all; the stable
  bucketing keeps results bit-identical to the sequential kernel (see
  :mod:`repro.parallel.ownership`).

Plain sequential execution runs none of these chunked loops: it takes the
plan path of :mod:`repro.kernels.plans` (one flattened ``np.add.at`` for
``atomic``/``owner``, one cached segmented reduce for ``sort``), which
replays the same floating-point schedule and so returns the same bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.types import Schedule
from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_KERNEL, current_tracer
from repro.kernels.contract import Access, declares_output
from repro.kernels.plans import scatter_plan, scatter_rows, uses_plans
from repro.parallel.atomic import atomic_add_rows, sorted_reduce_rows
from repro.parallel.backend import Backend, get_backend
from repro.parallel.ownership import owner_partition
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.validation import check_mode

#: Update strategies shared by the COO and HiCOO kernels.
MTTKRP_METHODS = ("atomic", "sort", "owner")

#: Privatization strategies for the ``atomic`` method under a threaded
#: backend.  ``"chunk"`` reproduces the seed's per-chunk buffers and is
#: kept only as the baseline of the hot-path ablation harness.
PRIVATIZE_MODES = ("arena", "chunk")


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


def _check_method(method: str, privatize: str, schedule) -> None:
    Schedule.coerce(schedule)
    if method not in MTTKRP_METHODS:
        raise ValueError(
            f"unknown Mttkrp method {method!r}; expected one of {MTTKRP_METHODS}"
        )
    if privatize not in PRIVATIZE_MODES:
        raise ValueError(
            f"unknown privatization {privatize!r}; expected one of {PRIVATIZE_MODES}"
        )


def _row_contributions(
    cols: Sequence["np.ndarray | None"],
    values: np.ndarray,
    mats: Sequence,
    dtype,
    lo: int = 0,
    hi: int | None = None,
    sel: np.ndarray | None = None,
) -> np.ndarray:
    """``contrib[k, :] = x_k * prod_{m != mode} U(m)[i_m(k), :]``.

    ``cols`` holds one canonical int64 index column per mode (``None`` at
    the product mode, whose matrix is also ``None``) so no per-call
    ``astype`` copies happen here.  Entries are selected either by the
    contiguous range ``[lo, hi)`` or by the explicit index array ``sel``
    (the owner-computes path, whose buckets are not contiguous).
    """
    if sel is None:
        hi = len(values) if hi is None else hi
        pick = slice(lo, hi)
    else:
        pick = sel
    contrib = values[pick].astype(dtype, copy=True)[:, None]
    first = True
    for col, u in zip(cols, mats):
        if u is None:
            continue
        rows = u[col[pick], :]
        if first:
            contrib = contrib * rows
            first = False
        else:
            contrib *= rows
    return contrib


def _plan_mttkrp(x, rows, cols, mats, out, method: str, tag) -> np.ndarray:
    """The plan-path Mttkrp over a prepared (rows, cols) entry stream.

    ``atomic`` and ``owner`` scatter in storage order, as ``np.add.at``
    does in the chunked loops; ``sort`` reduces pairwise with
    ``np.add.reduceat`` over the tensor's cached segments, as
    ``sorted_reduce_rows`` does.
    """
    contrib = _row_contributions(cols, x.values, mats, out.dtype)
    if method == "sort":
        scatter_plan(x, rows, tag).reduce_segments(out, contrib)
    else:
        scatter_rows(out, rows, contrib)
    return out


def _count_mttkrp(nnz: int, r: int, method: str) -> None:
    """Add one Mttkrp call's work to the ``kernel.*`` registry counters."""
    metrics = get_metrics()
    metrics.inc("kernel.nnz_processed", nnz)
    metrics.inc("kernel.flops", 3.0 * nnz * r)
    if method == "atomic":
        # The model charges the paper's algorithm: one scatter-add per
        # (entry, rank column), whatever privatization executes it.
        metrics.inc("kernel.atomics_issued", nnz * r)


def _scatter_add_parallel(
    out: np.ndarray,
    rows: np.ndarray,
    make_contrib,
    total: int,
    backend: Backend,
    schedule: "Schedule | str",
    chunk: int | None,
    privatize: str,
    entry_range,
) -> None:
    """Run the privatized scatter-add loop for the ``atomic`` method.

    ``make_contrib(lo, hi)`` produces the contribution rows of the entry
    range ``[lo, hi)``; ``entry_range(blo, bhi)`` maps a loop-iteration
    range to an entry range (identity for COO, ``bptr`` lookup for HiCOO
    blocks).  Threaded backends privatize into per-thread arenas (or the
    seed's per-chunk buffers when ``privatize="chunk"``); the sequential
    backend scatters straight into ``out``.
    """
    threaded = backend.is_threaded
    if not threaded:
        def body(blo: int, bhi: int) -> None:
            lo, hi = entry_range(blo, bhi)
            if hi <= lo:
                return
            atomic_add_rows(out, rows[lo:hi], make_contrib(lo, hi))

        with backend.check_output(out, Access.ATOMIC):
            backend.parallel_for(total, body, schedule=schedule, chunk=chunk)
        return

    if privatize == "chunk":
        # Seed baseline: one full-size private buffer per *chunk* — an
        # unbounded O(nchunks) allocation + reduction pattern, kept only
        # so the harness can measure what the arena pool saves.
        partials: dict[tuple[int, int], np.ndarray] = {}

        def body(blo: int, bhi: int) -> None:
            lo, hi = entry_range(blo, bhi)
            if hi <= lo:
                return
            local = np.zeros_like(out)
            atomic_add_rows(local, rows[lo:hi], make_contrib(lo, hi))
            partials[(lo, hi)] = local

        with backend.check_output(out, Access.WORKSPACE):
            backend.parallel_for(total, body, schedule=schedule, chunk=chunk)
        for local in partials.values():
            out += local
        return

    tracer = current_tracer()

    with backend.workspace(out.shape, out.dtype) as pool:
        def body(blo: int, bhi: int) -> None:
            lo, hi = entry_range(blo, bhi)
            if hi <= lo:
                return
            if tracer.enabled:
                # Enrich the enclosing chunk span: iteration ranges are
                # blocks for HiCOO, so record the *entry* count the chunk
                # actually moved (what load-imbalance is made of).
                tracer.annotate(entries=hi - lo)
            atomic_add_rows(pool.acquire(), rows[lo:hi], make_contrib(lo, hi))

        with backend.check_output(out, Access.WORKSPACE):
            backend.parallel_for(total, body, schedule=schedule, chunk=chunk)
        # The invariant the per-chunk scheme violated: private buffers
        # are bounded by the thread count, never the chunk count.
        assert pool.narenas <= backend.nthreads
        pool.reduce_into(out)


def _owner_scatter(
    out: np.ndarray,
    rows: np.ndarray,
    cols,
    values,
    mats,
    dtype,
    backend: Backend,
    align: int = 1,
) -> None:
    """Owner-computes scatter: bucket entries by output-row owner, then
    each range gathers and reduces its own disjoint slice of ``out``."""
    part = owner_partition(rows, out.shape[0], backend.nthreads, align=align)
    tracer = current_tracer()

    def body(lo: int, hi: int) -> None:
        sel = part.order[lo:hi]
        if tracer.enabled:
            tracer.annotate(entries=len(sel))
        contrib = _row_contributions(cols, values, mats, dtype, sel=sel)
        atomic_add_rows(out, rows[sel], contrib)

    with backend.check_output(out, Access.OWNER):
        backend.map_ranges(part.entry_ranges(), body)


@declares_output(by_method={
    "atomic": Access.WORKSPACE,  # threaded: per-thread arenas, reduced once
    "sort": Access.DISJOINT,     # segmented reduce writes each row once
    "owner": Access.OWNER,
})
def coo_mttkrp(
    x: COOTensor,
    mats: Sequence[np.ndarray],
    mode: int,
    backend: "Backend | str | None" = None,
    method: str = "atomic",
    schedule: "Schedule | str" = Schedule.STATIC,
    privatize: str = "arena",
) -> np.ndarray:
    """COO-Mttkrp parallelized by non-zeros (ParTI's algorithm).

    Parameters
    ----------
    mats:
        One ``(I_m, R)`` matrix per mode; the entry at ``mode`` is ignored
        (may be ``None``).
    method:
        ``"atomic"`` — scatter-add per chunk into per-thread arenas (the
        paper's algorithm); ``"sort"`` — sort-by-output-row then segmented
        reduce; ``"owner"`` — owner-computes row partitioning, race-free
        with no privatization and bit-identical to the sequential kernel.
    privatize:
        Arena strategy for the threaded ``atomic`` method: ``"arena"``
        (per-thread workspace pool, the default) or ``"chunk"`` (the seed's
        per-chunk buffers, kept as the harness ablation baseline).

    Plain sequential execution takes the plan path whatever the method;
    threaded and chunk-checking backends run the chunked loops.

    Returns the updated dense matrix ``(I_mode, R)``.
    """
    mode = check_mode(mode, x.nmodes)
    mats = _check_matrices(x.shape, mats, mode)
    _check_method(method, privatize, schedule)
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

        if uses_plans(backend):
            return _plan_mttkrp(x, rows, cols, mats, out, method, tag=mode)

        if method == "sort":
            contrib = _row_contributions(cols, x.values, mats, dtype)
            sorted_reduce_rows(out, rows, contrib)
            return out
        if method == "owner":
            _owner_scatter(out, rows, cols, x.values, mats, dtype, backend)
            return out

        def make_contrib(lo: int, hi: int) -> np.ndarray:
            return _row_contributions(cols, x.values, mats, dtype, lo, hi)

        _scatter_add_parallel(
            out, rows, make_contrib, x.nnz, backend, schedule, None, privatize,
            entry_range=lambda lo, hi: (lo, hi),
        )
        return out


@declares_output(by_method={
    "atomic": Access.WORKSPACE,
    "sort": Access.DISJOINT,
    "owner": Access.OWNER,
})
def hicoo_mttkrp(
    x: HiCOOTensor,
    mats: Sequence[np.ndarray],
    mode: int,
    backend: "Backend | str | None" = None,
    method: str = "atomic",
    schedule: "Schedule | str" = Schedule.DYNAMIC,
    blocks_per_chunk: int = 32,
    privatize: str = "arena",
) -> np.ndarray:
    """HiCOO-Mttkrp (paper Algorithm 2) parallelized by tensor *blocks*.

    For each block ``b``, the factor matrices are sliced at the block
    offsets (``Ab = A + bi·B·R`` etc.) and the block's entries update the
    sliced output with 8-bit element indices — matrix rows are reused
    across the block, which is where HiCOO-Mttkrp's smaller memory traffic
    (Table 1) comes from.  Blocks may collide on output rows, so the
    ``atomic`` method privatizes into per-thread arenas exactly like the
    COO path; ``method="owner"`` instead buckets entries by output-row
    ranges *aligned to block boundaries* (a block is never split between
    owners), making the update conflict-free with no privatization.
    """
    mode = check_mode(mode, x.nmodes)
    mats = _check_matrices(x.shape, mats, mode)
    _check_method(method, privatize, schedule)
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

        if uses_plans(backend):
            return _plan_mttkrp(x, rows, cols, mats, out, method, tag=mode)

        if method == "sort":
            contrib = _row_contributions(cols, x.values, mats, dtype)
            sorted_reduce_rows(out, rows, contrib)
            return out
        if method == "owner":
            _owner_scatter(
                out, rows, cols, x.values, mats, dtype, backend,
                align=x.block_size,
            )
            return out

        def make_contrib(lo: int, hi: int) -> np.ndarray:
            return _row_contributions(cols, x.values, mats, dtype, lo, hi)

        _scatter_add_parallel(
            out, rows, make_contrib, x.nblocks, backend, schedule,
            blocks_per_chunk, privatize,
            entry_range=lambda blo, bhi: (int(x.bptr[blo]), int(x.bptr[bhi])),
        )
        return out
