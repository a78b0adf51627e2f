"""repro — a parallel sparse tensor benchmark suite.

Reproduction of "A Parallel Sparse Tensor Benchmark Suite on CPUs and
GPUs" (Li et al., PPoPP 2020): five reference sparse tensor kernels (Tew,
Ts, Ttv, Ttm, Mttkrp) in COO and HiCOO formats, synthetic tensor
generators (stochastic Kronecker and biased power-law), CPU and
simulated-GPU execution backends, and roofline performance models for the
paper's four platforms.

Quickstart::

    import repro

    x = repro.COOTensor.random((200, 150, 120), nnz=10_000, rng=7)
    y = repro.ttv(x, np.ones(120, dtype=np.float32), mode=2)
    h = repro.HiCOOTensor.from_coo(x, block_size=128)
    a = repro.mttkrp(h, mats, mode=0)
"""

from repro.types import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_RANK,
    Format,
    Kernel,
    OpKind,
    Schedule,
)
from repro.sptensor import (
    COOTensor,
    CSFTensor,
    GHiCOOTensor,
    HiCOOTensor,
    SemiCOOTensor,
    SemiHiCOOTensor,
    as_format,
    to_coo,
    read_tns,
    write_tns,
    save_npz,
    load_npz,
    summarize,
)
from repro.kernels import mttkrp, tew, ts, ttm, ttv
from repro.parallel import OpenMPBackend, SequentialBackend, get_backend
from repro.stream import SlidingWindowTensor, StreamingTensorBuilder
from repro.validate import validate_tensor

__version__ = "1.0.0"

__all__ = [
    "COOTensor",
    "HiCOOTensor",
    "GHiCOOTensor",
    "SemiCOOTensor",
    "SemiHiCOOTensor",
    "CSFTensor",
    "as_format",
    "to_coo",
    "read_tns",
    "write_tns",
    "save_npz",
    "load_npz",
    "summarize",
    "tew",
    "ts",
    "ttv",
    "ttm",
    "mttkrp",
    "OpKind",
    "Kernel",
    "Format",
    "Schedule",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_RANK",
    "OpenMPBackend",
    "SequentialBackend",
    "get_backend",
    "StreamingTensorBuilder",
    "SlidingWindowTensor",
    "validate_tensor",
    "__version__",
]
