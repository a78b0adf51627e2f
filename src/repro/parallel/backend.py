"""Execution backend abstraction for the CPU kernels.

The paper's CPU kernels are OpenMP ``parallel for`` loops over non-zeros,
fibers, or blocks, with static/dynamic scheduling.  We reproduce that
structure: a :class:`Backend` provides ``parallel_for(total, body)`` where
``body(lo, hi)`` processes a contiguous range, and ``map_ranges(ranges,
body)`` for kernels that cut their own ranges (output-row owners, fiber
partitions).  Kernels vectorize each range with NumPy, so a multi-threaded
backend gets genuine parallelism (NumPy releases the GIL inside ufuncs)
while the sequential backend runs one whole-range chunk in the calling
thread — results are bit-identical because no kernel's arithmetic depends
on where its chunks are cut.
"""

from __future__ import annotations

import abc
import contextlib
from typing import Callable

from repro.types import Schedule
from repro.obs.tracer import CAT_CHUNK, CAT_REGION, current_tracer

#: A loop body processing the half-open index range [lo, hi).
RangeBody = Callable[[int, int], None]

_REGISTRY: dict[str, "Backend"] = {}


class Backend(abc.ABC):
    """Strategy object executing chunked parallel-for loops."""

    #: Logical worker count (1 for sequential); kernels cut their
    #: output-row ownership into this many ranges.
    nthreads: int = 1

    @contextlib.contextmanager
    def check_output(self, out, access):
        """Declare ``out`` as the shared output of the enclosed parallel
        region, written under the given access contract.

        ``access`` is an output-access contract kind (see
        :mod:`repro.kernels.contract`): ``"owner"`` (chunks own disjoint
        output row ranges) or ``"disjoint"`` (chunks write disjoint
        elements by construction).

        A no-op for executing backends — zero overhead on the hot path.
        ``RaceCheckBackend`` overrides it to record per-chunk write
        footprints on ``out`` and flag contract violations.
        """
        yield

    @abc.abstractmethod
    def parallel_for(
        self,
        total: int,
        body: RangeBody,
        schedule: "Schedule | str" = Schedule.STATIC,
        chunk: int | None = None,
    ) -> None:
        """Execute ``body`` over ``[0, total)`` split into chunks."""

    def map_ranges(self, ranges, body: RangeBody) -> None:
        """Execute ``body`` over explicit (lo, hi) ranges (fiber partitions)."""
        tracer = current_tracer()
        if tracer.enabled:
            ranges = list(ranges)
            with tracer.span(
                "map_ranges", cat=CAT_REGION, backend=self.name,
                schedule="explicit", nchunks=len(ranges),
                nthreads=self.nthreads,
            ):
                for lo, hi in ranges:
                    with tracer.span(
                        "chunk", cat=CAT_CHUNK, backend=self.name,
                        schedule="explicit", lo=lo, hi=hi,
                    ):
                        body(lo, hi)
            return
        for lo, hi in ranges:
            body(lo, hi)

    @property
    def name(self) -> str:
        return type(self).__name__


def register_backend(key: str, backend: "Backend") -> None:
    """Register a backend instance under a lookup key."""
    _REGISTRY[key.lower()] = backend


def get_backend(spec: "Backend | str | None" = None) -> "Backend":
    """Resolve a backend from an instance, registry key, or default.

    ``None`` resolves to the sequential backend; ``"openmp"`` and
    ``"seq"``/``"sequential"`` are always registered.
    """
    if spec is None:
        return _REGISTRY["sequential"]
    if isinstance(spec, Backend):
        return spec
    key = str(spec).lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown backend {spec!r}; registered: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]
