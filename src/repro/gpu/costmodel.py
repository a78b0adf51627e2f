"""GPU kernel cost model: bandwidth sharing, imbalance, atomics, caching.

The model charges each CUDA thread block for the bytes it moves at an
equal share of the device's obtainable bandwidth, then list-schedules the
blocks over the SMs; the makespan is the memory time.  This reproduces
the paper's structural effects directly from tensor statistics:

* *load imbalance* — unequal per-block byte counts (long fibers in
  COO-Ttv, fat tensor blocks in HiCOO-Mttkrp) stretch the makespan;
* *low parallelism* — fewer blocks than the device keeps resident leave
  bandwidth shares idle (HiCOO-Mttkrp-GPU's block-grain parallelism);
* *cache fit* — a working set inside the LLC is charged at the LLC
  bandwidth, letting small/short-mode tensors exceed the DRAM roofline
  (Observation 2, stronger on V100's 6 MB L2);
* *atomic contention* — scatter updates pay the device's atomic
  throughput scaled by the mean collision depth, cheaper on Volta;
* *address arithmetic* — index-heavy kernels pay an integer-pipeline
  term that Volta overlaps with FLOPs (``address_overlap``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_GPU, current_tracer
from repro.parallel.partition import makespan
from repro.gpu.device import DeviceSpec


@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one simulated kernel launch."""

    total_s: float
    memory_s: float
    atomic_s: float
    address_s: float
    overhead_s: float
    nblocks: int
    imbalance: float  # makespan / ideal memory time
    effective_bw_gbs: float
    cache_resident: bool
    notes: dict = field(default_factory=dict)


def effective_bandwidth(device: DeviceSpec, working_set_bytes: float) -> tuple[float, bool]:
    """(GB/s, cache_resident): LLC bandwidth when the working set fits."""
    if working_set_bytes <= device.llc_bytes:
        return device.llc_bw_gbs, True
    return device.dram_bw_gbs, False


def memory_time(
    device: DeviceSpec,
    block_bytes: np.ndarray,
    working_set_bytes: float | None = None,
) -> tuple[float, float, float, bool]:
    """Simulate the memory phase of a launch.

    Returns ``(seconds, imbalance, bw_gbs, cache_resident)``.  Each block
    is served at ``BW / W`` where ``W`` is the device's concurrent block
    capacity, and blocks are LPT-scheduled on ``W`` workers — so a
    perfectly balanced launch with many blocks converges to
    ``total_bytes / BW``, while stragglers and under-subscription stretch
    the makespan exactly as they do on hardware.
    """
    block_bytes = np.asarray(block_bytes, dtype=np.float64)
    total = float(block_bytes.sum())
    if total <= 0 or len(block_bytes) == 0:
        return 0.0, 1.0, device.dram_bw_gbs, False
    ws = total if working_set_bytes is None else working_set_bytes
    bw, resident = effective_bandwidth(device, ws)
    workers = device.max_concurrent_blocks
    per_block_rate = bw * 1e9 / workers
    times = block_bytes / per_block_rate
    span = makespan(times, workers)
    ideal = total / (bw * 1e9)
    return span, span / ideal if ideal > 0 else 1.0, bw, resident


def atomic_time(
    device: DeviceSpec, updates: float, mean_conflicts: float
) -> float:
    """Seconds serialized in atomicAdd traffic.

    ``updates`` scatter-adds are issued; colliding updates to the same
    address serialize, modeled as a damped ``log2(1 + c) / 4`` slowdown
    with mean collision depth ``c`` — hardware coalesces and banks
    same-row conflicts, so the penalty grows far sub-linearly (calibrated
    against the paper's Mttkrp efficiencies: ~40% on P100, up to >100% on
    V100).  Devices without atomics (CPU specs) report 0 throughput and
    must not call this.
    """
    if updates <= 0:
        return 0.0
    if device.atomic_gups <= 0:
        raise ValueError(f"device {device.name} has no atomic throughput set")
    contention_scale = float(np.log2(1.0 + max(mean_conflicts, 0.0))) / 4.0
    return updates * max(contention_scale, 1.0) / (device.atomic_gups * 1e9)


def address_time(
    device: DeviceSpec, index_ops: float, flop_time: float
) -> float:
    """Integer address-arithmetic time not hidden behind FLOPs.

    Index-heavy kernels (Mttkrp computes one address per matrix row
    gather) issue ``index_ops`` integer operations at the same rate as
    FLOPs; ``address_overlap`` of that time is hidden on Volta's
    independent datapaths (Observation 2)."""
    if index_ops <= 0:
        return 0.0
    raw = index_ops / (device.peak_sp_gflops * 1e9)
    exposed = raw * (1.0 - device.address_overlap)
    return max(0.0, exposed - flop_time * device.address_overlap)


def combine(
    device: DeviceSpec,
    mem_s: float,
    imbalance: float,
    bw: float,
    resident: bool,
    nblocks: int,
    atomic_s: float = 0.0,
    address_s: float = 0.0,
    **notes,
) -> KernelTiming:
    """Assemble the launch breakdown (memory, atomics and address phases
    overlap imperfectly; we charge memory plus the exposed serial parts)."""
    total = device.launch_overhead_s + mem_s + atomic_s + address_s
    occupancy = min(1.0, nblocks / max(1, device.max_concurrent_blocks))
    # The launch never executes on real silicon, so the telemetry records
    # the *model's* verdict: counters an Mttkrp sweep can roll up across
    # launches, plus one instant marker per launch when tracing.
    metrics = get_metrics()
    metrics.inc("gpu.launches")
    metrics.inc("gpu.modeled_s", total)
    metrics.inc("gpu.memory_s", mem_s)
    metrics.inc("gpu.atomic_s", atomic_s)
    metrics.inc("gpu.address_s", address_s)
    metrics.inc("gpu.blocks", nblocks)
    metrics.set_gauge("gpu.occupancy", occupancy)
    metrics.set_gauge("gpu.imbalance", imbalance)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.instant(
            "gpu_launch", cat=CAT_GPU, device=device.name,
            modeled_s=total, memory_s=mem_s, atomic_s=atomic_s,
            address_s=address_s, nblocks=nblocks, imbalance=imbalance,
            occupancy=occupancy, cache_resident=resident,
            effective_bw_gbs=bw,
        )
    return KernelTiming(
        total_s=total,
        memory_s=mem_s,
        atomic_s=atomic_s,
        address_s=address_s,
        overhead_s=device.launch_overhead_s,
        nblocks=nblocks,
        imbalance=imbalance,
        effective_bw_gbs=bw,
        cache_resident=resident,
        notes=dict(notes),
    )
