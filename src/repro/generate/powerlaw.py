"""Biased power-law stream tensor generator (paper Sec. 4.2.2).

Modeled on the FireHose streaming benchmark's *biased power-law* front-end
generator: a stream of events whose key popularity follows a power law.
The paper combines such power-law graphs into slices of higher-order
tensors: the sparse, equidimensional modes take power-law-distributed
indices (a few hub indices absorb most of the non-zeros) while the short
modes are drawn uniformly and end up *completely dense* — the structure of
the paper's ``irr*`` tensors ("one mode completely dense and much smaller
compared to the two other modes which are equidimensional and sparse").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GenerationError
from repro.generate.resample import distinct_coords
from repro.types import VALUE_DTYPE
from repro.sptensor.coo import COOTensor
from repro.util.prng import rng_from_seed


def powerlaw_indices(
    count: int,
    size: int,
    alpha: float,
    rng: np.random.Generator,
    shuffle_map: bool = True,
) -> np.ndarray:
    """Draw ``count`` indices in ``[0, size)`` with a power-law popularity.

    Uses inverse-CDF sampling of a truncated Pareto: index rank ``k`` is
    drawn with probability ~ ``(k+1)^-alpha``.  With ``shuffle_map`` the
    ranks are mapped through a seeded permutation so the hubs are scattered
    over the index space (FireHose's keys are hashed, not ordered).
    """
    if size <= 0:
        raise GenerationError("size must be positive")
    if alpha <= 1.0:
        raise GenerationError(f"power-law exponent must exceed 1, got {alpha}")
    u = rng.random(count)
    # Inverse CDF of a continuous truncated power-law on [1, size+1).
    a = 1.0 - alpha
    lo, hi = 1.0, float(size + 1)
    ranks = ((hi**a - lo**a) * u + lo**a) ** (1.0 / a)
    idx = np.minimum(ranks.astype(np.int64) - 1, size - 1)
    if shuffle_map:
        # Deterministic scatter of ranks over the index space.
        mapping = rng.permutation(size)
        idx = mapping[idx]
    return idx


def powerlaw_tensor(
    shape: Sequence[int],
    nnz: int,
    alpha: float = 2.0,
    dense_modes: Sequence[int] = (),
    seed: "int | np.random.Generator | None" = None,
    max_rounds: int = 64,
    dtype=VALUE_DTYPE,
) -> COOTensor:
    """Generate a sparse tensor whose sparse-mode indices are power-law.

    Parameters
    ----------
    dense_modes:
        Modes drawn *uniformly*; when their dimension is much smaller than
        ``nnz`` they become effectively dense, as in the paper's irregular
        tensors.  All other modes draw from the biased power law.
    alpha:
        Power-law exponent (> 1); 2-2.5 matches real-world graphs.

    Distinct coordinates come from :func:`repro.generate.resample.distinct_coords`.
    Coordinates and values are bit-identical to those of the row-wise
    ``np.unique(axis=0)`` resample loop it replaced (same RNG stream), so
    tensors, goldens and fingerprints pinned to a seed still hold.
    """
    shape = tuple(int(s) for s in shape)
    order = len(shape)
    dense = set(int(m) % order for m in dense_modes)
    rng = rng_from_seed(seed)
    capacity = 1.0
    for s in shape:
        capacity *= float(s)
    if nnz > capacity:
        raise GenerationError(f"cannot place {nnz} non-zeros in shape {shape}")

    def draw(count: int) -> list:
        return [
            rng.integers(0, shape[m], size=count) if m in dense
            else powerlaw_indices(count, shape[m], alpha, rng)
            for m in range(order)
        ]

    coords = distinct_coords(
        shape, nnz, draw, rng, max_rounds,
        lambda got: (
            f"could not realize {nnz} distinct non-zeros in shape {shape}: "
            f"power-law hubs saturated after {max_rounds} rounds "
            f"(got {got}); lower alpha or nnz"
        ),
    )
    values = (rng.random(nnz) + 0.5).astype(dtype)
    return COOTensor(shape, coords, values, copy=False, check=False)


def powerlaw_stream(
    nnz: int,
    shape: Sequence[int],
    alpha: float = 2.0,
    dense_modes: Sequence[int] = (),
    seed: "int | np.random.Generator | None" = None,
    batch: int = 8192,
):
    """Yield ``(coords, values)`` batches like a FireHose event stream.

    Unlike :func:`powerlaw_tensor`, duplicates are *not* removed — a
    stream naturally revisits hot keys.  Feed the concatenated batches to
    :meth:`COOTensor.coalesce` to accumulate a tensor from the stream.
    """
    shape = tuple(int(s) for s in shape)
    order = len(shape)
    dense = set(int(m) % order for m in dense_modes)
    rng = rng_from_seed(seed)
    remaining = int(nnz)
    while remaining > 0:
        draw = min(batch, remaining)
        cols = []
        for m in range(order):
            if m in dense:
                cols.append(rng.integers(0, shape[m], size=draw))
            else:
                cols.append(powerlaw_indices(draw, shape[m], alpha, rng))
        coords = np.stack(cols, axis=1)
        values = (rng.random(draw) + 0.5).astype(VALUE_DTYPE)
        yield coords, values
        remaining -= draw
