"""Stochastic Kronecker tensor generator (paper Sec. 4.2.1).

The Stochastic Kronecker graph model (Leskovec et al., JMLR'10) grows a
graph as the n-fold Kronecker power of a small *initiator* matrix, then
realizes edges by Bernoulli sampling; the result follows a power-law
degree distribution with small diameter and high clustering.  The paper
extends the model to order-N tensors by taking the initiator to be an
N-mode probability tensor.

Sampling: rather than materializing the (exponentially large) Kronecker
power, each non-zero is placed by descending the initiator ``n`` times —
at each level an initiator cell is drawn with probability proportional to
its weight and contributes one digit (base = initiator dimension) to every
mode's coordinate.  This is the standard R-MAT-style realization and is
equivalent in expectation to Bernoulli sampling of the full product.

The exponential growth of the Kronecker power means mode sizes are powers
of the initiator dimension; the paper overcomes this by running one extra
iteration and stripping coordinates that fall outside the requested shape,
which :func:`kronecker_tensor` reproduces.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import GenerationError
from repro.generate.resample import distinct_coords
from repro.types import VALUE_DTYPE
from repro.sptensor.coo import COOTensor
from repro.util.prng import rng_from_seed


def default_initiator(order: int, dim: int = 2, skew: float = 0.6) -> np.ndarray:
    """A corner-weighted initiator generalizing the R-MAT (a,b,c,d) matrix.

    Cell weight decays geometrically with the sum of its coordinates, so
    low-index regions of the generated tensor are densest — producing the
    heavy-tailed slice/fiber distribution of real-world tensors.
    """
    if dim < 2:
        raise GenerationError("initiator dimension must be >= 2")
    if not 0 < skew < 1:
        raise GenerationError(f"skew must be in (0, 1), got {skew}")
    grids = np.indices((dim,) * order).reshape(order, -1).sum(axis=0)
    weights = skew ** grids.astype(np.float64)
    weights /= weights.sum()
    return weights.reshape((dim,) * order)


def _sample_coords(
    initiator: np.ndarray,
    iterations: int,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``count`` coordinates by descending the initiator ``iterations``
    times; returns an ``(count, order)`` int64 array."""
    order = initiator.ndim
    dim = initiator.shape[0]
    flat = initiator.ravel().astype(np.float64)
    flat = flat / flat.sum()
    # ``rng.choice(flat.size, size=(count, iterations), p=flat)`` unrolled:
    # the same uniform draws, and each cell is the count of CDF edges
    # ``<= u`` (its ``searchsorted(side="right")``).  The last edge is 1.0
    # and never counts.
    cdf = flat.cumsum()
    cdf /= cdf[-1]
    u = rng.random((count, iterations))
    cells = np.zeros(u.shape, dtype=np.intp)
    for edge in cdf[:-1]:
        cells += u >= edge
    # Each level contributes one base-``dim`` digit to every mode's
    # coordinate, most significant first.
    digits = np.unravel_index(np.arange(flat.size), initiator.shape)
    place = dim ** np.arange(iterations - 1, -1, -1, dtype=np.int64)
    coords = np.empty((count, order), dtype=np.int64)
    for d in range(order):
        coords[:, d] = digits[d][cells] @ place
    return coords


def kronecker_tensor(
    shape: Sequence[int],
    nnz: int,
    initiator: np.ndarray | None = None,
    seed: "int | np.random.Generator | None" = None,
    max_rounds: int = 64,
    dtype=VALUE_DTYPE,
) -> COOTensor:
    """Generate a sparse tensor from the stochastic Kronecker model.

    Parameters
    ----------
    shape:
        Requested dimension sizes (need not be powers of the initiator
        dimension — the strip-oversize trick handles the remainder).
    nnz:
        Number of distinct non-zeros to realize.
    initiator:
        N-mode cubical probability tensor; defaults to
        :func:`default_initiator` of matching order.
    seed:
        PRNG seed for reproducible generation.
    max_rounds:
        Abort threshold for the resample loop (hit only when ``nnz``
        approaches the tensor capacity and collisions dominate).

    Distinct coordinates come from :func:`repro.generate.resample.distinct_coords`.
    Coordinates and values are bit-identical to those of the row-wise
    ``np.unique(axis=0)`` resample loop it replaced (same RNG stream), so
    tensors, goldens and fingerprints pinned to a seed still hold.
    """
    shape = tuple(int(s) for s in shape)
    order = len(shape)
    if initiator is None:
        initiator = default_initiator(order)
    initiator = np.asarray(initiator, dtype=np.float64)
    if initiator.ndim != order:
        raise GenerationError(
            f"initiator order {initiator.ndim} does not match shape order {order}"
        )
    if len(set(initiator.shape)) != 1:
        raise GenerationError("initiator must be cubical")
    if (
        not np.isfinite(initiator).all()
        or (initiator < 0).any()
        or initiator.sum() <= 0
    ):
        raise GenerationError("initiator must be a non-negative weight tensor")
    dim = initiator.shape[0]
    # One extra iteration past the largest mode, then strip (paper 4.2.1).
    iterations = max(1, math.ceil(math.log(max(shape), dim)))
    rng = rng_from_seed(seed)

    shape_arr = np.asarray(shape, dtype=np.int64)

    def draw(count: int) -> tuple:
        coords = _sample_coords(initiator, iterations, count, rng)
        # Strip coordinates falling outside the requested shape.
        return tuple(coords[(coords < shape_arr).all(axis=1)].T)

    coords = distinct_coords(
        shape, nnz, draw, rng, max_rounds,
        lambda got: (
            f"could not realize {nnz} distinct non-zeros in shape {shape} "
            f"after {max_rounds} rounds (got {got}); the "
            "initiator may be too concentrated for this density"
        ),
    )
    values = (rng.random(nnz) + 0.5).astype(dtype)
    return COOTensor(shape, coords, values, copy=False, check=False)
