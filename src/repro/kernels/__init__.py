"""The five benchmark kernels with format-polymorphic dispatchers.

``tew / ts / ttv / ttm / mttkrp`` accept COO or HiCOO tensors and route to
the format-specific implementation; the benchmark harness times them
(``repro.bench.runner.HOST_KERNELS``) on the bundle's tensor of the format
under test.  The ``coo_*`` / ``hicoo_*`` functions remain available for
explicit use.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import FormatError
from repro.types import OpKind
from repro.kernels.dense_ref import (
    dense_mttkrp,
    dense_tew,
    dense_ts,
    dense_ttm,
    dense_ttv,
)
from repro.kernels.flops import (
    TABLE1_ASYMPTOTIC_OI,
    KernelCost,
    kernel_cost,
    mttkrp_cost,
    tew_cost,
    ts_cost,
    ttm_cost,
    ttv_cost,
)
from repro.kernels.contract import (
    Access,
    OutputContract,
    declares_output,
    output_contract,
    registered_contracts,
)
from repro.kernels.csf import csf_mttkrp, csf_ttv
from repro.kernels.scoo_ttm import scoo_ttm, scoo_ttm_chain
from repro.kernels.mttkrp import coo_mttkrp, hicoo_mttkrp
from repro.kernels.tew import coo_tew, hicoo_tew
from repro.kernels.ts import coo_ts, hicoo_ts
from repro.kernels.ttm import coo_ttm, ghicoo_ttm, hicoo_ttm
from repro.kernels.ttv import coo_ttv, ghicoo_ttv, hicoo_ttv
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor


def tew(x, y, op: "OpKind | str" = OpKind.ADD, backend=None, **kw):
    """Element-wise ``x op y``; dispatches on the format of ``x``."""
    if isinstance(x, COOTensor):
        return coo_tew(x, y, op, backend, **kw)
    if isinstance(x, HiCOOTensor):
        return hicoo_tew(x, y, op, backend, **kw)
    raise FormatError(f"tew does not support {type(x).__name__}")


def ts(x, s: float, op: "OpKind | str" = OpKind.MUL, backend=None, **kw):
    """Tensor-scalar ``x op s``; dispatches on the format of ``x``."""
    if isinstance(x, COOTensor):
        return coo_ts(x, s, op, backend, **kw)
    if isinstance(x, HiCOOTensor):
        return hicoo_ts(x, s, op, backend, **kw)
    raise FormatError(f"ts does not support {type(x).__name__}")


def ttv(x, v: np.ndarray, mode: int, backend=None, **kw):
    """Tensor-times-vector in ``mode``; dispatches on the format of ``x``."""
    if isinstance(x, COOTensor):
        return coo_ttv(x, v, mode, backend, **kw)
    if isinstance(x, HiCOOTensor):
        return hicoo_ttv(x, v, mode, backend, **kw)
    raise FormatError(f"ttv does not support {type(x).__name__}")


def ttm(x, u: np.ndarray, mode: int, backend=None, **kw):
    """Tensor-times-matrix in ``mode``; dispatches on the format of ``x``."""
    if isinstance(x, COOTensor):
        return coo_ttm(x, u, mode, backend, **kw)
    if isinstance(x, HiCOOTensor):
        return hicoo_ttm(x, u, mode, backend, **kw)
    raise FormatError(f"ttm does not support {type(x).__name__}")


def mttkrp(x, mats: Sequence[np.ndarray], mode: int, backend=None, **kw):
    """Mode-``mode`` Mttkrp; dispatches on the format of ``x``."""
    if isinstance(x, COOTensor):
        return coo_mttkrp(x, mats, mode, backend, **kw)
    if isinstance(x, HiCOOTensor):
        return hicoo_mttkrp(x, mats, mode, backend, **kw)
    raise FormatError(f"mttkrp does not support {type(x).__name__}")


__all__ = [
    "tew",
    "ts",
    "ttv",
    "ttm",
    "mttkrp",
    "coo_tew",
    "hicoo_tew",
    "coo_ts",
    "hicoo_ts",
    "coo_ttv",
    "hicoo_ttv",
    "ghicoo_ttv",
    "coo_ttm",
    "hicoo_ttm",
    "ghicoo_ttm",
    "coo_mttkrp",
    "hicoo_mttkrp",
    "csf_ttv",
    "csf_mttkrp",
    "Access",
    "OutputContract",
    "declares_output",
    "output_contract",
    "registered_contracts",
    "scoo_ttm",
    "scoo_ttm_chain",
    "dense_tew",
    "dense_ts",
    "dense_ttv",
    "dense_ttm",
    "dense_mttkrp",
    "KernelCost",
    "kernel_cost",
    "tew_cost",
    "ts_cost",
    "ttv_cost",
    "ttm_cost",
    "mttkrp_cost",
    "TABLE1_ASYMPTOTIC_OI",
]
