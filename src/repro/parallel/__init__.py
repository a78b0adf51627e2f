"""CPU parallel substrate: backends, partitioners, output-row ownership,
and the concurrency-correctness harness (race-check + chaos backends)."""

from repro.parallel.backend import Backend, get_backend, register_backend
from repro.parallel.blas import blas_threads, pin_blas_threads
from repro.parallel.chaos import ChaosBackend, ChaosError
from repro.parallel.openmp import OpenMPBackend
from repro.parallel.racecheck import RaceCheckBackend, RaceViolation, RegionReport
from repro.parallel.slots import SlotPool, bound_slot, current_slot
from repro.parallel.ownership import OwnerPartition, owner_partition
from repro.parallel.partition import (
    balanced_partition,
    chunk_ranges,
    fixed_chunks,
    guided_chunks,
    load_imbalance,
    makespan,
)
from repro.parallel.sequential import SequentialBackend

# The backends own the cores: BLAS calls between kernels run on the
# calling thread instead of leaving workers spinning beside the pool.
pin_blas_threads()

# Default registry entries: the suite always has a sequential executor, an
# OpenMP-like pool sized to the host, and the race-check replayer.
register_backend("sequential", SequentialBackend())
register_backend("seq", get_backend("sequential"))
register_backend("openmp", OpenMPBackend())
register_backend("omp", get_backend("openmp"))
register_backend("racecheck", RaceCheckBackend())

__all__ = [
    "Backend",
    "blas_threads",
    "SequentialBackend",
    "OpenMPBackend",
    "RaceCheckBackend",
    "RaceViolation",
    "RegionReport",
    "ChaosBackend",
    "ChaosError",
    "SlotPool",
    "bound_slot",
    "current_slot",
    "get_backend",
    "register_backend",
    "chunk_ranges",
    "fixed_chunks",
    "guided_chunks",
    "balanced_partition",
    "load_imbalance",
    "makespan",
    "OwnerPartition",
    "owner_partition",
]
