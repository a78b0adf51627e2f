"""CANDECOMP/PARAFAC decomposition via alternating least squares (CP-ALS).

The paper motivates Mttkrp as "the most computationally expensive kernel
in CP decomposition"; this module closes the loop by implementing CP-ALS
on top of the suite's sparse Mttkrp, exactly as ParTI/SPLATT structure it:

    for each mode n:  A(n) <- MTTKRP(X, {A}, n) @ pinv(V)
    where V = hadamard of A(m)^T A(m) over m != n

The data fit is tracked with the standard norm identity so the residual
is never materialized:

    ||X - K||^2 = ||X||^2 + ||K||^2 - 2 <X, K>
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError
from repro.kernels.mttkrp import coo_mttkrp, hicoo_mttkrp
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.prng import rng_from_seed


@dataclass
class CPResult:
    """A rank-R Kruskal tensor: ``sum_r lambda_r a_r ° b_r ° c_r ...``."""

    weights: np.ndarray  # (R,)
    factors: list  # one (I_m, R) matrix per mode
    fits: list = field(default_factory=list)  # fit per iteration
    n_iters: int = 0
    converged: bool = False

    @property
    def rank(self) -> int:
        return len(self.weights)

    def norm(self, grams=None) -> float:
        """Frobenius norm of the Kruskal tensor (via the Gram identity).

        ``grams`` are the factors' ``a.T @ a`` when the caller keeps them
        up to date; they are recomputed otherwise.
        """
        if grams is None:
            grams = [a.T @ a for a in self.factors]
        coeff = np.outer(self.weights, self.weights)
        for g in grams:
            coeff = coeff * g
        return float(np.sqrt(max(coeff.sum(), 0.0)))

    def to_dense(self) -> np.ndarray:
        """Materialize (small tensors only)."""
        shape = tuple(a.shape[0] for a in self.factors)
        out = np.zeros(shape)
        for r in range(self.rank):
            comp = self.weights[r]
            rank1 = self.factors[0][:, r]
            for a in self.factors[1:]:
                rank1 = np.multiply.outer(rank1, a[:, r])
            out += comp * rank1
        return out

    def inner(self, tensor: COOTensor, mttkrp_mode0: np.ndarray) -> float:
        """``<X, K>`` given a mode-0 Mttkrp of X against the factors."""
        return float(
            (self.weights * (self.factors[0] * mttkrp_mode0).sum(axis=0)).sum()
        )


def _mttkrp(tensor, factors, mode, backend):
    if isinstance(tensor, HiCOOTensor):
        return hicoo_mttkrp(tensor, factors, mode, backend)
    return coo_mttkrp(tensor, factors, mode, backend)


def cp_als(
    tensor: "COOTensor | HiCOOTensor",
    rank: int,
    n_iters: int = 50,
    tol: float = 1e-5,
    seed: "int | None" = 0,
    backend=None,
    init_factors=None,
) -> CPResult:
    """Fit a rank-``rank`` CP decomposition with ALS.

    Works on COO or HiCOO tensors (the Mttkrp dispatches per format, so
    this doubles as an end-to-end HiCOO workload).  Returns the factors
    with unit-norm columns and the scale absorbed into ``weights``.
    """
    if rank < 1:
        raise ShapeError("rank must be >= 1")
    shape = tensor.shape
    n = len(shape)
    rng = rng_from_seed(seed)
    if init_factors is None:
        factors = [rng.random((s, rank)) for s in shape]
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in init_factors]
        if len(factors) != n or any(
            f.shape != (shape[m], rank) for m, f in enumerate(factors)
        ):
            raise ShapeError("init_factors must match tensor shape and rank")
    grams = [f.T @ f for f in factors]
    values64 = tensor.values.astype(np.float64)
    norm_x = float(np.sqrt((values64**2).sum()))
    weights = np.ones(rank)
    result = CPResult(weights, factors)

    prev_fit = -np.inf
    for it in range(n_iters):
        for mode in range(n):
            m = _mttkrp(tensor, factors, mode, backend).astype(np.float64, copy=False)
            v = np.ones((rank, rank))
            for other in range(n):
                if other != mode:
                    v = v * grams[other]
            a = m @ np.linalg.pinv(v)
            # column normalization: 2-norm after iter 0, max-norm first
            # (the Tensor Toolbox convention, keeps columns bounded)
            if it == 0:
                norms = np.linalg.norm(a, axis=0)
            else:
                norms = np.maximum(np.abs(a).max(axis=0), 1.0)
            norms = np.where(norms > 0, norms, 1.0)
            a = a / norms
            # previous factors are unit-norm, so the full scale lands in
            # each fresh update; strip it into the weights (Tensor
            # Toolbox's cp_als convention: lambda is overwritten per mode)
            weights = norms
            factors[mode] = a
            grams[mode] = a.T @ a
            last_mttkrp, last_mode = m, mode
        result.weights = weights
        result.factors = factors
        # fit via the norm identity, using the last computed Mttkrp; every
        # mode was updated this iteration, so grams are the factors' Grams
        norm_k = result.norm(grams)
        inner = float(
            (result.weights * (factors[last_mode] * last_mttkrp).sum(axis=0)).sum()
        )
        residual_sq = max(norm_x**2 + norm_k**2 - 2 * inner, 0.0)
        fit = 1.0 - np.sqrt(residual_sq) / norm_x if norm_x > 0 else 1.0
        result.fits.append(fit)
        result.n_iters = it + 1
        if abs(fit - prev_fit) < tol:
            result.converged = True
            break
        prev_fit = fit
    return result
