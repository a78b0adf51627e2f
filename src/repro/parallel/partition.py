"""Work partitioners and load-balance metrics.

COO kernels parallelize over non-zeros (uniform cost), Ttv/Ttm over fibers
(cost = fiber length), and HiCOO kernels over blocks (cost = block nnz).
The partitioners here turn those irregular work distributions into chunk
ranges, and the imbalance metrics feed both Observation 4's analysis and
the simulated-GPU cost model.
"""

from __future__ import annotations

import numpy as np


def validate_chunk(chunk: "int | None") -> "int | None":
    """Validate an explicit chunk size; ``None`` means "use the default".

    An explicit ``chunk=0`` is rejected rather than silently coerced to the
    backend default (the old ``chunk or default`` idiom discarded it).
    """
    if chunk is None:
        return None
    c = int(chunk)
    if c < 1:
        raise ValueError(f"chunk must be >= 1 when given, got {chunk!r}")
    return c


def plan_ranges(
    total: int,
    schedule,
    chunk: "int | None",
    nthreads: int,
    default_chunk: int,
) -> list[tuple[int, int]]:
    """The OpenMP-style chunk decomposition shared by every backend that
    mirrors ``#pragma omp parallel for schedule(...)``.

    * ``static``  — one near-equal chunk per thread, unless an explicit
      chunk size is given;
    * ``dynamic`` — fixed chunks of ``chunk`` (default ``default_chunk``);
    * ``guided``  — decaying chunks floored at ``chunk``/``default_chunk``.

    Exposed as a function so the race-check and chaos backends replay the
    *identical* decomposition the executing backend would run.
    """
    from repro.types import Schedule

    schedule = Schedule.coerce(schedule)
    chunk = validate_chunk(chunk)
    if total <= 0:
        return []
    if schedule is Schedule.STATIC:
        return (
            fixed_chunks(total, chunk)
            if chunk is not None
            else chunk_ranges(total, nthreads)
        )
    if schedule is Schedule.DYNAMIC:
        return fixed_chunks(total, chunk if chunk is not None else default_chunk)
    # GUIDED: floor at the default chunk (OpenMP's guided floors at the
    # chunk argument too); min_chunk=1 would degenerate into a long tail
    # of 1-element chunks once remaining/nthreads < 1.
    return guided_chunks(
        total, nthreads, min_chunk=chunk if chunk is not None else default_chunk
    )


def chunk_ranges(total: int, nchunks: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into at most ``nchunks`` near-equal ranges."""
    if total <= 0:
        return []
    nchunks = max(1, min(nchunks, total))
    bounds = np.linspace(0, total, nchunks + 1).astype(np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(nchunks)
        if bounds[i + 1] > bounds[i]
    ]


def fixed_chunks(total: int, chunk: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into ranges of ``chunk`` items (last may be short)."""
    if total <= 0:
        return []
    chunk = max(1, int(chunk))
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def guided_chunks(total: int, nworkers: int, min_chunk: int = 1) -> list[tuple[int, int]]:
    """OpenMP ``guided`` schedule: chunk = remaining / nworkers, decreasing."""
    out: list[tuple[int, int]] = []
    lo = 0
    while lo < total:
        size = max(min_chunk, (total - lo) // max(1, nworkers))
        hi = min(total, lo + size)
        out.append((lo, hi))
        lo = hi
    return out


def balanced_partition(weights: np.ndarray, nparts: int) -> list[tuple[int, int]]:
    """Split items with per-item ``weights`` into contiguous ranges whose
    total weights are as even as a prefix-sum greedy split can make them.

    Used to give each Mttkrp row owner a near-equal share of the updates
    (:func:`repro.parallel.ownership.owner_partition`).
    """
    n = len(weights)
    if n == 0:
        return []
    nparts = max(1, min(nparts, n))
    csum = np.concatenate(([0], np.cumsum(weights, dtype=np.float64)))
    total = csum[-1]
    if total <= 0:
        return chunk_ranges(n, nparts)
    targets = np.linspace(0, total, nparts + 1)[1:-1]
    cuts = np.searchsorted(csum[1:-1], targets) + 1
    bounds = np.unique(np.concatenate(([0], cuts, [n])))
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)]


def load_imbalance(work: np.ndarray) -> float:
    """``max(work) / mean(work)`` — the classic imbalance factor (>= 1)."""
    work = np.asarray(work, dtype=np.float64)
    if work.size == 0:
        return 1.0
    mean = work.mean()
    return float(work.max() / mean) if mean > 0 else 1.0


def makespan(costs: np.ndarray, nworkers: int) -> float:
    """LPT (longest-processing-time) list-scheduling makespan of ``costs``
    onto ``nworkers`` identical workers.

    Exact greedy simulation for modest task counts; for huge counts the
    tight LPT bound ``max(max_cost, total / nworkers)`` is returned (the
    greedy result converges to it as tasks shrink relative to the total).
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.size == 0 or nworkers <= 0:
        return 0.0
    if nworkers == 1:
        return float(costs.sum())
    if costs.size <= 65536:
        import heapq

        order = np.sort(costs)[::-1]
        heap = [0.0] * nworkers
        for c in order:
            t = heapq.heappop(heap)
            heapq.heappush(heap, t + float(c))
        return float(max(heap))
    return float(max(costs.max(), costs.sum() / nworkers))
