"""Simulated GPU substrate: devices, cost model, kernel launches."""

from repro.gpu.costmodel import (
    KernelTiming,
    address_time,
    atomic_time,
    combine,
    effective_bandwidth,
    memory_time,
)
from repro.gpu.device import DEVICES, P100, V100, DeviceSpec, get_device
from repro.gpu.kernels import (
    GpuRunResult,
    gpu_coo_mttkrp,
    gpu_hicoo_mttkrp,
    gpu_mttkrp,
    gpu_tew,
    gpu_ts,
    gpu_ttm,
    gpu_ttv,
    mttkrp_timing,
    tew_timing,
    ts_timing,
    ttm_timing,
    ttv_timing,
)

__all__ = [
    "DeviceSpec",
    "P100",
    "V100",
    "DEVICES",
    "get_device",
    "KernelTiming",
    "memory_time",
    "atomic_time",
    "address_time",
    "effective_bandwidth",
    "combine",
    "GpuRunResult",
    "gpu_tew",
    "gpu_ts",
    "gpu_ttv",
    "gpu_ttm",
    "gpu_mttkrp",
    "gpu_coo_mttkrp",
    "gpu_hicoo_mttkrp",
    "tew_timing",
    "ts_timing",
    "ttv_timing",
    "ttm_timing",
    "mttkrp_timing",
]
