"""Structural statistics of sparse tensors.

The paper's analysis (Table 1, Observations 1-5) is driven by a handful of
tensor features: non-zero count ``M``, fiber count ``MF`` per mode, block
count ``nb`` and per-block occupancy for HiCOO, density, and mode-size
skew.  This module computes them uniformly so the roofline/OI machinery,
the GPU cost model and the dataset surrogates all agree on definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.plans import fiber_lengths
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.validation import check_mode


@dataclass(frozen=True)
class FiberStats:
    """Distribution of non-zeros over the mode-``n`` fibers of a tensor."""

    mode: int
    nfibers: int
    mean_len: float
    max_len: int
    min_len: int
    std_len: float

    @property
    def imbalance(self) -> float:
        """``max / mean`` — 1.0 is perfectly balanced."""
        return self.max_len / self.mean_len if self.mean_len else 1.0


def fiber_stats(tensor: COOTensor, mode: int) -> FiberStats:
    """Fiber-length distribution along ``mode`` (drives Ttv/Ttm balance)."""
    mode = check_mode(mode, tensor.nmodes)
    lengths = fiber_lengths(tensor, mode)
    if len(lengths) == 0:
        return FiberStats(mode, 0, 0.0, 0, 0, 0.0)
    return FiberStats(
        mode=mode,
        nfibers=int(len(lengths)),
        mean_len=float(lengths.mean()),
        max_len=int(lengths.max()),
        min_len=int(lengths.min()),
        std_len=float(lengths.std()),
    )


@dataclass(frozen=True)
class BlockStats:
    """Distribution of non-zeros over HiCOO blocks."""

    nblocks: int
    block_size: int
    mean_nnz: float
    max_nnz: int
    min_nnz: int

    @property
    def imbalance(self) -> float:
        return self.max_nnz / self.mean_nnz if self.mean_nnz else 1.0

    @property
    def alpha(self) -> float:
        """Average non-zeros per block (HiCOO paper's occupancy metric);
        hyper-sparse tensors have alpha close to 1, where HiCOO loses."""
        return self.mean_nnz


def block_stats(tensor: HiCOOTensor) -> BlockStats:
    nnzb = tensor.nnz_per_block()
    if len(nnzb) == 0:
        return BlockStats(0, tensor.block_size, 0.0, 0, 0)
    return BlockStats(
        nblocks=int(len(nnzb)),
        block_size=tensor.block_size,
        mean_nnz=float(nnzb.mean()),
        max_nnz=int(nnzb.max()),
        min_nnz=int(nnzb.min()),
    )


@dataclass(frozen=True)
class TensorSummary:
    """The per-tensor feature vector used throughout the harness."""

    name: str
    order: int
    shape: tuple[int, ...]
    nnz: int
    density: float
    fibers_per_mode: tuple[int, ...]
    max_fiber_imbalance: float

    @property
    def avg_fibers(self) -> float:
        """Mean ``MF`` across modes (kernels average over modes)."""
        return float(np.mean(self.fibers_per_mode)) if self.fibers_per_mode else 0.0


def summarize(tensor: COOTensor, name: str = "tensor") -> TensorSummary:
    """Compute the full feature vector of a COO tensor."""
    fib = [fiber_stats(tensor, m) for m in range(tensor.nmodes)]
    return TensorSummary(
        name=name,
        order=tensor.nmodes,
        shape=tensor.shape,
        nnz=tensor.nnz,
        density=tensor.density,
        fibers_per_mode=tuple(f.nfibers for f in fib),
        max_fiber_imbalance=max((f.imbalance for f in fib), default=1.0),
    )


def nnz_per_slice(tensor: COOTensor, mode: int) -> np.ndarray:
    """Non-zeros in each mode-``mode`` slice (index-histogram over a mode)."""
    mode = check_mode(mode, tensor.nmodes)
    return np.bincount(
        tensor.indices[:, mode].astype(np.int64), minlength=tensor.shape[mode]
    )


def mode_fill(tensor: COOTensor, mode: int) -> float:
    """Fraction of mode-``mode`` index values that actually appear.

    A mode with fill 1.0 and a short dimension is "dense-ish" — the trait
    the paper's irregular power-law tensors are built to exhibit.
    """
    mode = check_mode(mode, tensor.nmodes)
    if tensor.shape[mode] == 0:
        return 0.0
    return tensor.mode_sizes_touched(mode) / tensor.shape[mode]
