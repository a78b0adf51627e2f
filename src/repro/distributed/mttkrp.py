"""Distributed Mttkrp and CP-ALS on the simulated message-passing substrate.

Implements the *coarse-grained* decomposition used by distributed tensor
libraries (SPLATT's medium-grained scheme simplifies to this when factor
matrices are replicated): non-zeros are partitioned across ranks, every
rank holds a full copy of the factor matrices, each ALS step computes a
local Mttkrp on its shard, and an all-reduce sums the partial output
matrices.  Numeric results equal the serial kernels (up to summation
order); simulated time combines each rank's modeled local compute with
the collective costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.bench.cpumodel import modeled_cpu_time
from repro.distributed.comm import SimNetwork
from repro.kernels.mttkrp import coo_mttkrp
from repro.methods.cpd import CPResult
from repro.roofline.oi import extract_features
from repro.roofline.platform import BLUESKY, PlatformSpec
from repro.sptensor.coo import COOTensor
from repro.types import Format, Kernel


@dataclass(frozen=True)
class DistributedResult:
    """Value + simulated time of one distributed kernel call."""

    value: np.ndarray
    seconds: float
    local_seconds: tuple[float, ...]
    comm_seconds: float
    nranks: int


def partition_nnz(tensor: COOTensor, nranks: int) -> list[COOTensor]:
    """Contiguous nnz shards of a sorted tensor, one per rank."""
    if nranks < 1:
        raise ShapeError("need at least one rank")
    t = tensor.copy().sort()
    bounds = np.linspace(0, t.nnz, nranks + 1).astype(np.int64)
    return [
        COOTensor(
            t.shape,
            t.indices[bounds[r]:bounds[r + 1]],
            t.values[bounds[r]:bounds[r + 1]],
            copy=False,
            check=False,
        )
        for r in range(nranks)
    ]


def _local_time(
    shard: COOTensor, platform: PlatformSpec, rank_count: int, r: int
) -> float:
    """Modeled local Mttkrp time of one shard on one node."""
    if shard.nnz == 0:
        return 0.0
    feats = extract_features(shard, "shard", 128)
    return modeled_cpu_time(
        platform, Kernel.MTTKRP, Format.COO, feats, r=r
    ).total_s


def distributed_mttkrp(
    tensor: COOTensor,
    mats: Sequence[np.ndarray],
    mode: int,
    net: SimNetwork,
    platform: PlatformSpec = BLUESKY,
    shards: Sequence[COOTensor] | None = None,
) -> DistributedResult:
    """Coarse-grained distributed Mttkrp.

    Every rank computes ``coo_mttkrp`` on its shard and the partial
    outputs are all-reduced.  Pass pre-computed ``shards`` to amortize the
    partitioning across ALS iterations.
    """
    if shards is None:
        shards = partition_nnz(tensor, net.nranks)
    if len(shards) != net.nranks:
        raise ShapeError("one shard per rank required")
    rank = next(np.asarray(u).shape[1] for u in mats if u is not None)
    t0 = net.makespan
    locals_: list[float] = []
    partials = []
    for r, shard in enumerate(shards):
        if shard.nnz:
            partial = coo_mttkrp(shard, mats, mode)
        else:
            partial = np.zeros((tensor.shape[mode], rank))
        secs = _local_time(shard, platform, net.nranks, rank)
        net.local_work(r, secs)
        locals_.append(secs)
        partials.append(partial)
    before_comm = net.makespan
    total = net.allreduce(partials)
    return DistributedResult(
        value=total,
        seconds=net.makespan - t0,
        local_seconds=tuple(locals_),
        comm_seconds=net.makespan - before_comm,
        nranks=net.nranks,
    )


@dataclass
class DistributedCPResult:
    """Outcome of a distributed CP-ALS run."""

    weights: np.ndarray
    factors: list
    fits: list
    seconds: float
    comm_seconds: float
    nranks: int


def distributed_cp_als(
    tensor: COOTensor,
    rank: int,
    net: SimNetwork,
    n_iters: int = 10,
    tol: float = 1e-5,
    seed: "int | None" = 0,
    platform: PlatformSpec = BLUESKY,
) -> DistributedCPResult:
    """CP-ALS with replicated factors and distributed Mttkrp.

    The ALS math matches :func:`repro.methods.cpd.cp_als`; each mode
    update's Mttkrp runs distributed, so the fit trajectory agrees with
    the serial algorithm up to floating-point summation order.
    """
    from repro.util.prng import rng_from_seed

    shape = tensor.shape
    n = len(shape)
    rng = rng_from_seed(seed)
    factors = [rng.random((s, rank)) for s in shape]
    grams = [f.T @ f for f in factors]
    shards = partition_nnz(tensor, net.nranks)
    values64 = tensor.values.astype(np.float64)
    norm_x = float(np.sqrt((values64**2).sum()))
    weights = np.ones(rank)
    fits: list[float] = []
    comm_total = 0.0
    t0 = net.makespan
    prev_fit = -np.inf
    for it in range(n_iters):
        for mode in range(n):
            res = distributed_mttkrp(
                tensor, factors, mode, net, platform, shards=shards
            )
            comm_total += res.comm_seconds
            m = res.value.astype(np.float64, copy=False)
            v = np.ones((rank, rank))
            for other in range(n):
                if other != mode:
                    v = v * grams[other]
            a = m @ np.linalg.pinv(v)
            norms = (
                np.linalg.norm(a, axis=0)
                if it == 0
                else np.maximum(np.abs(a).max(axis=0), 1.0)
            )
            norms = np.where(norms > 0, norms, 1.0)
            a = a / norms
            weights = norms
            factors[mode] = a
            grams[mode] = a.T @ a
            last_mttkrp, last_mode = m, mode
        norm_k = CPResult(weights, factors).norm(grams)
        inner = float(
            (weights * (factors[last_mode] * last_mttkrp).sum(axis=0)).sum()
        )
        residual_sq = max(norm_x**2 + norm_k**2 - 2 * inner, 0.0)
        fit = 1.0 - np.sqrt(residual_sq) / norm_x if norm_x > 0 else 1.0
        fits.append(fit)
        if abs(fit - prev_fit) < tol:
            break
        prev_fit = fit
    return DistributedCPResult(
        weights=weights,
        factors=factors,
        fits=fits,
        seconds=net.makespan - t0,
        comm_seconds=comm_total,
        nranks=net.nranks,
    )
