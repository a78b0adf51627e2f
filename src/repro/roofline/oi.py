"""Per-tensor operational intensity — the accurate OI of Figures 4-7.

The paper marks the *asymptotic* OIs of Table 1 on Figure 3, but the
per-tensor roofline bounds of Figures 4-7 use "an accurate #Flops/#Bytes
ratio by taking different tensor features into account, especially for
Ttv and Ttm because of the MF term".  This module derives those accurate
OIs from a tensor's measured features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import DEFAULT_BLOCK_SIZE, DEFAULT_RANK, Format, Kernel
from repro.kernels.flops import KernelCost, kernel_cost
from repro.kernels.plans import fiber_lengths
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor


@dataclass(frozen=True)
class TensorFeatures:
    """The feature vector the cost formulas consume.

    ``mf_per_mode[m]`` is the mode-``m`` fiber count; mode-oriented
    kernels are averaged over modes in the paper, so :attr:`mf_avg` is
    what enters the averaged OI.
    """

    name: str
    shape: tuple[int, ...]
    nnz: int
    mf_per_mode: tuple[int, ...]
    nb: int  # HiCOO block count (0 if never blocked)
    block_size: int
    max_fiber_imbalance: float
    max_block_nnz: int
    contention_per_mode: tuple[float, ...]  # mean updates per output row

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def mf_avg(self) -> float:
        return float(np.mean(self.mf_per_mode))


def extract_features(
    tensor: COOTensor,
    name: str = "tensor",
    block_size: int = DEFAULT_BLOCK_SIZE,
    hicoo: HiCOOTensor | None = None,
) -> TensorFeatures:
    """Measure every feature the roofline/cost machinery needs, once.

    Pass an already-built ``hicoo`` to avoid re-blocking the tensor.
    """
    if hicoo is None:
        hicoo = HiCOOTensor.from_coo(tensor, block_size)
    mf, imb, cont = [], [], []
    for m in range(tensor.nmodes):
        lengths = fiber_lengths(tensor, m)
        mf.append(int(len(lengths)))
        if len(lengths):
            imb.append(float(lengths.max() / lengths.mean()))
        else:
            imb.append(1.0)
        rows = tensor.mode_sizes_touched(m)
        cont.append(tensor.nnz / rows if rows else 0.0)
    nnzb = hicoo.nnz_per_block()
    return TensorFeatures(
        name=name,
        shape=tensor.shape,
        nnz=tensor.nnz,
        mf_per_mode=tuple(mf),
        nb=hicoo.nblocks,
        block_size=block_size,
        max_fiber_imbalance=max(imb) if imb else 1.0,
        max_block_nnz=int(nnzb.max()) if len(nnzb) else 0,
        contention_per_mode=tuple(cont),
    )


def cost_for(
    features: TensorFeatures,
    kernel: "Kernel | str",
    fmt: "Format | str" = Format.COO,
    r: int = DEFAULT_RANK,
) -> KernelCost:
    """Table 1 cost instantiated with this tensor's features (mode-avg)."""
    kernel = Kernel.coerce(kernel)
    fmt = Format.coerce(fmt)
    return kernel_cost(
        kernel,
        fmt,
        m=features.nnz,
        mf=max(1, int(round(features.mf_avg))),
        r=r,
        nb=max(1, features.nb),
        block_size=features.block_size,
        order=features.order,
    )


def accurate_oi(
    features: TensorFeatures,
    kernel: "Kernel | str",
    fmt: "Format | str" = Format.COO,
    r: int = DEFAULT_RANK,
) -> float:
    """The per-tensor OI marked against the roofline in Figures 4-7."""
    return cost_for(features, kernel, fmt, r).oi
