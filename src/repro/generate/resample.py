"""The resample loop shared by the Kronecker and power-law generators.

Both generators place non-zeros by drawing batches of candidate
coordinates, keeping the distinct ones, and drawing again until ``nnz``
distinct coordinates are held.  :func:`distinct_coords` is that loop.

The held set is a sorted 1-D array of C-order linear keys
(``np.ravel_multi_index``).  Each round only the new draw is uniqued;
keys already held are dropped with a binary search and the rest are
merged in with a stable sort of the two sorted runs.  C-order keys of
non-negative coordinates sort exactly like lexicographic rows, so every
round holds the same set in the same order as a row-wise
``np.unique(axis=0)`` of everything drawn so far, and the RNG is consumed
in the same order.  Shapes with more cells than an int64 can number keep
that row-wise unique: it is the only representation that fits them.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.errors import GenerationError

#: Largest cell count whose C-order linear keys fit in an int64.
_MAX_LINEAR_CELLS = int(np.iinfo(np.int64).max)


def _merge_new_keys(held: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``held`` (sorted, distinct) with the distinct ``keys`` not yet in
    it merged in, still sorted."""
    # Sorted unique of the draw; a plain sort beats np.unique's hash path.
    # A round may draw nothing (a generator strips out-of-shape draws).
    new = np.sort(keys)
    first = np.empty(new.size, dtype=bool)
    first[:1] = True
    np.not_equal(new[1:], new[:-1], out=first[1:])
    new = new[first]
    pos = np.searchsorted(held, new)
    known = pos < held.size
    known[known] = held[pos[known]] == new[known]
    merged = np.concatenate([held, new[~known]])
    merged.sort(kind="stable")
    return merged


def distinct_coords(
    shape: Sequence[int],
    nnz: int,
    draw: Callable[[int], Sequence[np.ndarray]],
    rng: np.random.Generator,
    max_rounds: int,
    saturated: Callable[[int], str],
) -> np.ndarray:
    """Draw until ``nnz`` distinct coordinates are held; pick ``nnz``.

    ``draw(count)`` returns one int64 index column per mode, at most
    ``count`` long (a generator may strip out-of-shape candidates).  Each
    round asks for 30% (at least 16) more than are still missing.  After
    ``max_rounds`` rounds short of ``nnz`` the loop raises
    :class:`GenerationError` with the message ``saturated(held)``.  The
    ``nnz`` coordinates are a uniformly random subset of the held set,
    picked with ``rng.permutation``; the result is an ``(nnz, order)``
    C-contiguous int64 array.
    """
    shape = tuple(int(s) for s in shape)
    linear = math.prod(shape) <= _MAX_LINEAR_CELLS
    if linear:
        held = np.empty(0, dtype=np.int64)
    else:
        held = np.empty((0, len(shape)), dtype=np.int64)
    for _ in range(max_rounds):
        need = nnz - held.shape[0]
        if need <= 0:
            break
        cols = draw(max(need + 16, int(need * 1.3)))
        if linear:
            held = _merge_new_keys(held, np.ravel_multi_index(cols, shape))
        else:
            coords = np.stack(cols, axis=1)
            held = np.unique(np.concatenate([held, coords], axis=0), axis=0)
    if held.shape[0] < nnz:
        raise GenerationError(saturated(held.shape[0]))
    picked = held[rng.permutation(held.shape[0])[:nnz]]
    if linear:
        return np.stack(np.unravel_index(picked, shape), axis=1)
    return picked
