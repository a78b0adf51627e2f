"""Simulated-GPU variants of the five kernels.

Each function executes the kernel numerically (via the NumPy reference
implementations, so results are exact) and simulates the launch the paper
describes for CUDA (Sec. 3.2.2 / 3.4.2):

* Tew / Ts — 1-D grid of 1-D thread blocks over non-zeros (256 threads);
* Ttv — 1-D grid over *fibers* (imbalance from fiber lengths);
* Ttm — 1-D grid of 2-D blocks: x = matrix columns (coalesced), y = nnz;
* COO-Mttkrp — non-zero parallel with ``atomicAdd`` on the output;
* HiCOO-Mttkrp — one *tensor block* per CUDA block: balanced non-zero
  distribution is lost, atomics stay (the paper's Observation 4 case).

The returned :class:`GpuRunResult` carries both the numeric value and a
:class:`~repro.gpu.costmodel.KernelTiming` breakdown.  The launch model
reads only the tensor's structure and the operands' shapes, never their
values, so each kernel's ``*_timing`` function gives the same timing
without running the kernel; the suite runner calls those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import PatternMismatchError
from repro.types import OpKind
from repro.obs.registry import get_metrics
from repro.kernels.mttkrp import coo_mttkrp, hicoo_mttkrp
from repro.kernels.tew import coo_tew, hicoo_tew
from repro.kernels.ts import coo_ts, hicoo_ts
from repro.kernels.ttm import coo_ttm, hicoo_ttm
from repro.kernels.ttv import coo_ttv, hicoo_ttv
from repro.gpu.costmodel import (
    KernelTiming,
    atomic_time,
    address_time,
    combine,
    memory_time,
)
from repro.gpu.device import DeviceSpec
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.validation import check_same_shape


@dataclass(frozen=True)
class GpuRunResult:
    """Numeric result + simulated timing of one GPU kernel launch."""

    value: Any
    timing: KernelTiming

    @property
    def seconds(self) -> float:
        return self.timing.total_s

    def gflops(self, flops: float) -> float:
        return flops / self.seconds / 1e9 if self.seconds > 0 else 0.0


def _block_sizes(total: int, per_block: int) -> np.ndarray:
    """Entry counts of a 1-D grid of fixed-size thread blocks."""
    if total <= 0:
        return np.zeros(0, dtype=np.int64)
    per_block = max(1, per_block)
    nb = (total + per_block - 1) // per_block
    sizes = np.full(nb, per_block, dtype=np.int64)
    sizes[-1] = total - per_block * (nb - 1)
    return sizes


def _fiber_block_bytes(
    fiber_lengths: np.ndarray,
    fibers_per_block: int,
    entry_bytes: float,
    fiber_bytes: float,
    warp: int = 0,
) -> np.ndarray:
    """Bytes moved by each thread block of a fiber-parallel launch.

    With ``warp > 0`` the model charges *warp divergence*: one thread per
    fiber means every thread in a warp spins until the warp's longest
    fiber finishes, so each fiber is billed at its warp's maximum length —
    the mechanism that keeps COO-Ttv-GPU well under the roofline on
    skewed tensors (paper Sec. 3.2.2).
    """
    nf = len(fiber_lengths)
    if nf == 0:
        return np.zeros(0, dtype=np.float64)
    lengths = fiber_lengths.astype(np.float64)
    if warp > 1:
        ngroups = (nf + warp - 1) // warp
        group_of = np.arange(nf) // warp
        gmax = np.zeros(ngroups, dtype=np.float64)
        np.maximum.at(gmax, group_of, lengths)
        lengths = gmax[group_of]
    nb = (nf + fibers_per_block - 1) // fibers_per_block
    work = lengths * entry_bytes + fiber_bytes
    out = np.zeros(nb, dtype=np.float64)
    np.add.at(out, np.arange(nf) // fibers_per_block, work)
    return out


# --------------------------------------------------------------------- #
# Tew / Ts
# --------------------------------------------------------------------- #
def _tew_launch(out_nnz: int, device: DeviceSpec) -> KernelTiming:
    blocks = _block_sizes(out_nnz, device.threads_per_block) * 12.0
    mem_s, imb, bw, res = memory_time(device, blocks, working_set_bytes=12.0 * out_nnz)
    return combine(device, mem_s, imb, bw, res, len(blocks))


def _tew_value(x, y, op, kw: dict):
    if isinstance(x, HiCOOTensor):
        return hicoo_tew(x, y, op, **kw)
    return coo_tew(x, y, op, **kw)


def tew_timing(x, y, op: "OpKind | str", device: DeviceSpec, **kw) -> KernelTiming:
    """COO/HiCOO-Tew-GPU launch: non-zero parallel, 12 bytes per output
    entry.  On one pattern (``assume_same_pattern``, the paper's case)
    the output has ``x.nnz`` entries; otherwise the merge is run to
    count them.  Inputs are checked as :func:`gpu_tew` checks them."""
    if not kw.get("assume_same_pattern"):
        return _tew_launch(_tew_value(x, y, op, kw).nnz, device)
    check_same_shape(x, y)
    if x.nnz != y.nnz:
        raise PatternMismatchError(
            f"same-pattern Tew requires equal nnz: {x.nnz} vs {y.nnz}"
        )
    return _tew_launch(x.nnz, device)


def gpu_tew(x, y, op: "OpKind | str", device: DeviceSpec, **kw) -> GpuRunResult:
    """COO/HiCOO-Tew-GPU: non-zero parallel, 12 bytes per output entry."""
    value = _tew_value(x, y, op, kw)
    return GpuRunResult(value, _tew_launch(value.nnz, device))


def ts_timing(x, s: float, op: "OpKind | str", device: DeviceSpec, **kw) -> KernelTiming:
    """COO/HiCOO-Ts-GPU launch: non-zero parallel, 8 bytes per entry."""
    blocks = _block_sizes(x.nnz, device.threads_per_block) * 8.0
    mem_s, imb, bw, res = memory_time(device, blocks, working_set_bytes=8.0 * x.nnz)
    return combine(device, mem_s, imb, bw, res, len(blocks))


def gpu_ts(x, s: float, op: "OpKind | str", device: DeviceSpec, **kw) -> GpuRunResult:
    """COO/HiCOO-Ts-GPU: non-zero parallel, 8 bytes per entry."""
    value = hicoo_ts(x, s, op, **kw) if isinstance(x, HiCOOTensor) else coo_ts(x, s, op, **kw)
    return GpuRunResult(value, ts_timing(x, s, op, device))


# --------------------------------------------------------------------- #
# Ttv
# --------------------------------------------------------------------- #
def ttv_timing(x, v: np.ndarray, mode: int, device: DeviceSpec, **kw) -> KernelTiming:
    """COO/HiCOO-Ttv-GPU launch: one thread per fiber; unbalanced fiber
    lengths make some thread blocks stragglers (paper Sec. 3.2.2)."""
    coo = x.to_coo() if isinstance(x, HiCOOTensor) else x
    lengths = coo.fiber_index(mode).fiber_lengths()
    blocks = _fiber_block_bytes(
        lengths, device.threads_per_block, 12.0, 12.0, warp=32
    )
    ws = 12.0 * coo.nnz + 12.0 * len(lengths) + 4.0 * coo.shape[mode]
    mem_s, imb, bw, res = memory_time(device, blocks, working_set_bytes=ws)
    return combine(device, mem_s, imb, bw, res, len(blocks))


def gpu_ttv(x, v: np.ndarray, mode: int, device: DeviceSpec, **kw) -> GpuRunResult:
    """COO/HiCOO-Ttv-GPU: the numeric Ttv and its :func:`ttv_timing`."""
    timing = ttv_timing(x, v, mode, device)
    value = (
        hicoo_ttv(x, v, mode, **kw)
        if isinstance(x, HiCOOTensor)
        else coo_ttv(x, v, mode, **kw)
    )
    return GpuRunResult(value, timing)


# --------------------------------------------------------------------- #
# Ttm
# --------------------------------------------------------------------- #
def ttm_timing(x, u: np.ndarray, mode: int, device: DeviceSpec, **kw) -> KernelTiming:
    """COO/HiCOO-Ttm-GPU launch: 2-D thread blocks, x-dim = matrix
    columns for coalescing, y-dim = non-zeros (ParTI's kernel)."""
    coo = x.to_coo() if isinstance(x, HiCOOTensor) else x
    r = u.shape[1]
    lengths = coo.fiber_index(mode).fiber_lengths()
    fibers_per_block = max(1, device.threads_per_block // max(r, 1))
    # 2-D blocks put R columns on the x-dim, so a warp only spans
    # 32/R fibers on the y-dim: divergence is much milder than Ttv's.
    blocks = _fiber_block_bytes(
        lengths, fibers_per_block, 4.0 * r + 8.0, 4.0 * r + 8.0,
        warp=max(1, 32 // max(r, 1)),
    )
    ws = (4.0 * r + 8.0) * (coo.nnz + len(lengths)) + 4.0 * coo.shape[mode] * r
    mem_s, imb, bw, res = memory_time(device, blocks, working_set_bytes=ws)
    return combine(device, mem_s, imb, bw, res, len(blocks))


def gpu_ttm(x, u: np.ndarray, mode: int, device: DeviceSpec, **kw) -> GpuRunResult:
    """COO/HiCOO-Ttm-GPU: the numeric Ttm and its :func:`ttm_timing`."""
    timing = ttm_timing(x, u, mode, device)
    value = (
        hicoo_ttm(x, u, mode, **kw)
        if isinstance(x, HiCOOTensor)
        else coo_ttm(x, u, mode, **kw)
    )
    return GpuRunResult(value, timing)


# --------------------------------------------------------------------- #
# Mttkrp
# --------------------------------------------------------------------- #
def _mttkrp_contention(rows: np.ndarray) -> float:
    """Mean scatter-collision depth on the output rows."""
    if len(rows) == 0:
        return 0.0
    counts = np.bincount(rows.astype(np.int64))
    counts = counts[counts > 0]
    return float(counts.mean())


def _mttkrp_atomics(device, rows: np.ndarray, r: int, kw: dict):
    """Atomic cost of an Mttkrp launch, respecting the update method.

    The conflict-free strategies (``owner`` row partitioning, ``sort``
    segmented reduce) issue no ``atomicAdd`` at all — their simulated
    launch charges zero atomic time and unit contention, which is exactly
    the trade the ablation benchmark measures.
    """
    method = kw.get("method", "atomic")
    if method in ("owner", "sort"):
        return 0.0, 1.0
    contention = _mttkrp_contention(rows)
    metrics = get_metrics()
    metrics.inc("gpu.atomics_issued", len(rows) * r)
    metrics.set_gauge("gpu.atomic_conflict_depth", contention)
    return atomic_time(device, len(rows) * r, contention), contention


def _coo_mttkrp_timing(
    x: COOTensor, r: int, mode: int, device: DeviceSpec, kw: dict
) -> KernelTiming:
    """COO-Mttkrp-GPU launch: non-zero parallel with atomicAdd on the
    output matrix; balanced work, contended updates."""
    m = x.nnz
    entries_per_block = max(1, device.threads_per_block // max(r, 1))
    # Streaming phase: tensor indices + values (16 bytes per entry).
    stream_blocks = _block_sizes(m, entries_per_block) * 16.0
    mem_s, imb, bw, res = memory_time(
        device, stream_blocks, working_set_bytes=float("inf")
    )
    # Gather phases, one per non-product mode plus the scattered output:
    # each gathers one R-float row per entry, and its working set is the
    # rows actually touched — a tensor with a *short* mode keeps that
    # factor matrix in the LLC and can exceed the DRAM roofline
    # (Observation 2 on the V100's larger L2).
    gather_modes = [mm for mm in range(x.nmodes) if mm != mode] + [mode]
    for mm in gather_modes:
        touched = len(np.unique(x.indices[:, mm]))
        ws = 4.0 * r * touched
        blocks = _block_sizes(m, entries_per_block) * (4.0 * r)
        t, i2, b2, r2 = memory_time(device, blocks, working_set_bytes=ws)
        mem_s += t
        imb = max(imb, i2)
        if not r2:
            bw, res = b2, r2
    atom, contention = _mttkrp_atomics(device, x.index_column(mode), r, kw)
    flop_time = 3.0 * m * r / (device.peak_sp_gflops * 1e9)
    addr = address_time(device, 4.0 * m * r, flop_time)
    return combine(
        device,
        mem_s,
        imb,
        bw,
        res,
        len(stream_blocks),
        atomic_s=atom,
        address_s=addr,
        contention=contention,
    )


def _hicoo_mttkrp_timing(
    x: HiCOOTensor, r: int, mode: int, device: DeviceSpec, kw: dict
) -> KernelTiming:
    """HiCOO-Mttkrp-GPU launch: one tensor block per CUDA thread block.

    The balanced non-zero distribution of the COO kernel disappears —
    per-CUDA-block work is the tensor block's nnz — while atomics stay, so
    heavy-tailed block occupancy and low block counts can make this
    *slower* than COO-Mttkrp-GPU (paper Observation 4)."""
    nnzb = x.nnz_per_block().astype(np.float64)
    ginds = x.global_indices()
    # Per tensor-block traffic: matrix rows (reused within the block, at
    # most B distinct rows per matrix), 8-bit element indices + values.
    per_block = nnzb * (12.0 * r + 7.0) + 20.0
    # Working set: the rows actually touched across the factor matrices
    # (short modes stay cache-resident, as in the COO kernel).
    ws = sum(
        4.0 * r * len(np.unique(ginds[:, mm])) for mm in range(x.nmodes)
    )
    mem_s, imb, bw, res = memory_time(device, per_block, working_set_bytes=ws)
    rows = ginds[:, mode]
    atom, _ = _mttkrp_atomics(device, rows, r, kw)
    flop_time = 3.0 * x.nnz * r / (device.peak_sp_gflops * 1e9)
    addr = address_time(device, 2.0 * x.nnz * r, flop_time)
    return combine(
        device,
        mem_s,
        imb,
        bw,
        res,
        len(per_block),
        atomic_s=atom,
        address_s=addr,
        block_imbalance=float(nnzb.max() / nnzb.mean()) if len(nnzb) else 1.0,
    )


def mttkrp_timing(x, mats, mode: int, device: DeviceSpec, **kw) -> KernelTiming:
    """Mttkrp-GPU launch of either format; reads only the rank of
    ``mats``."""
    r = next(u.shape[1] for u in mats if u is not None)
    if isinstance(x, HiCOOTensor):
        return _hicoo_mttkrp_timing(x, r, mode, device, kw)
    return _coo_mttkrp_timing(x, r, mode, device, kw)


def gpu_coo_mttkrp(
    x: COOTensor,
    mats: Sequence[np.ndarray],
    mode: int,
    device: DeviceSpec,
    **kw,
) -> GpuRunResult:
    """COO-Mttkrp-GPU: the numeric Mttkrp and its COO launch timing."""
    value = coo_mttkrp(x, mats, mode, **kw)
    return GpuRunResult(value, _coo_mttkrp_timing(x, value.shape[1], mode, device, kw))


def gpu_hicoo_mttkrp(
    x: HiCOOTensor,
    mats: Sequence[np.ndarray],
    mode: int,
    device: DeviceSpec,
    **kw,
) -> GpuRunResult:
    """HiCOO-Mttkrp-GPU: the numeric Mttkrp and its block-parallel launch
    timing."""
    value = hicoo_mttkrp(x, mats, mode, **kw)
    return GpuRunResult(value, _hicoo_mttkrp_timing(x, value.shape[1], mode, device, kw))


def gpu_mttkrp(x, mats, mode: int, device: DeviceSpec, **kw) -> GpuRunResult:
    """Dispatch on format: COO → nnz-parallel, HiCOO → block-parallel."""
    if isinstance(x, HiCOOTensor):
        return gpu_hicoo_mttkrp(x, mats, mode, device, **kw)
    return gpu_coo_mttkrp(x, mats, mode, device, **kw)
