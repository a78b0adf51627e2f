"""Tensor reordering for locality (Li et al., ICS'19, cited by the paper).

The paper notes that the irregular vector/matrix accesses of Ttv/Ttm/
Mttkrp "could be improved due to reductions in memory pressure" if the
access "gains a good localized pattern ... from reordering techniques".
Reordering relabels the indices of each mode; the tensor is mathematically
a permuted copy, but clustered non-zeros fill HiCOO blocks more densely
(higher alpha, fewer blocks) and gather from hotter cache lines.

Three reference strategies:

* :func:`random_reorder`  — the control (destroys any natural order);
* :func:`degree_reorder`  — hub-first: relabel by decreasing slice nnz,
  concentrating the power-law mass at low indices;
* :func:`lexi_reorder`    — Lexi-Order-style alternating lexicographic
  sweeps: each mode is relabeled by the sorted order of its slices'
  non-zero patterns, iterated a few rounds, clustering similar slices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.prng import rng_from_seed
from repro.util.sorting import stable_argsort
from repro.util.validation import check_mode


def apply_permutations(
    tensor: COOTensor, perms: dict[int, np.ndarray]
) -> COOTensor:
    """Relabel indices: new index on mode ``m`` is ``perms[m][old]``.

    Each permutation array maps old index -> new index and must be a
    bijection on ``range(shape[m])``.
    """
    inds = tensor.indices.astype(np.int64, copy=True)
    for mode, perm in perms.items():
        mode = check_mode(mode, tensor.nmodes)
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (tensor.shape[mode],):
            raise ValueError(
                f"permutation for mode {mode} must have length "
                f"{tensor.shape[mode]}, got {perm.shape}"
            )
        inds[:, mode] = perm[inds[:, mode]]
    return COOTensor(tensor.shape, inds, tensor.values, copy=False, check=True)


def random_reorder(
    tensor: COOTensor,
    modes: Sequence[int] | None = None,
    seed: "int | None" = 0,
) -> tuple[COOTensor, dict[int, np.ndarray]]:
    """Random relabeling of the given modes (default: all)."""
    rng = rng_from_seed(seed)
    modes = range(tensor.nmodes) if modes is None else modes
    perms = {
        check_mode(m, tensor.nmodes): rng.permutation(tensor.shape[m])
        for m in modes
    }
    return apply_permutations(tensor, perms), perms


def degree_reorder(
    tensor: COOTensor, modes: Sequence[int] | None = None
) -> tuple[COOTensor, dict[int, np.ndarray]]:
    """Relabel each mode by decreasing slice non-zero count (hubs first)."""
    modes = range(tensor.nmodes) if modes is None else modes
    perms = {}
    for m in modes:
        m = check_mode(m, tensor.nmodes)
        counts = np.bincount(
            tensor.indices[:, m].astype(np.int64), minlength=tensor.shape[m]
        )
        order = stable_argsort(-counts)  # old indices, hot first
        perm = np.empty(tensor.shape[m], dtype=np.int64)
        perm[order] = np.arange(tensor.shape[m])
        perms[m] = perm
    return apply_permutations(tensor, perms), perms


def lexi_reorder(
    tensor: COOTensor, sweeps: int = 3
) -> tuple[COOTensor, dict[int, np.ndarray]]:
    """Alternating lexicographic relabeling (Lexi-Order-like).

    Each sweep relabels one mode by the lexicographic order of its
    slices' non-zero coordinate sets (approximated by the minimum
    linearized coordinate per slice, a cheap stand-in that clusters
    slices sharing low coordinates), cycling over the modes.
    """
    work = tensor.copy()
    total: dict[int, np.ndarray] = {
        m: np.arange(tensor.shape[m], dtype=np.int64)
        for m in range(tensor.nmodes)
    }
    for sweep in range(sweeps):
        mode = sweep % tensor.nmodes
        rest = [m for m in range(tensor.nmodes) if m != mode]
        lin = np.zeros(work.nnz, dtype=np.int64)
        for m in rest:
            lin = lin * np.int64(work.shape[m]) + work.indices[:, m].astype(np.int64)
        # key per slice: (min linearized rest-coordinate, -nnz)
        size = work.shape[mode]
        min_key = np.full(size, np.iinfo(np.int64).max)
        np.minimum.at(min_key, work.indices[:, mode].astype(np.int64), lin)
        counts = np.bincount(
            work.indices[:, mode].astype(np.int64), minlength=size
        )
        order = np.lexsort((-counts, min_key))
        perm = np.empty(size, dtype=np.int64)
        perm[order] = np.arange(size)
        work = apply_permutations(work, {mode: perm})
        total[mode] = perm[total[mode]]
    return work, total


def blocking_quality(tensor: COOTensor, block_size: int = 128) -> dict:
    """HiCOO blocking metrics used to score a reordering: fewer blocks and
    higher average occupancy (alpha) mean better locality."""
    h = HiCOOTensor.from_coo(tensor, block_size)
    nnzb = h.nnz_per_block()
    return {
        "nblocks": h.nblocks,
        "alpha": float(nnzb.mean()) if len(nnzb) else 0.0,
        "hicoo_bytes": h.nbytes,
        "compression": h.compression_ratio(),
    }
