"""Single-threaded backend — the reference executor.

Runs every loop in the calling thread, as one whole-range chunk by
default, so a kernel's one lowering runs unchanged whether or not threads
are available (important on single-core CI machines).
"""

from __future__ import annotations

from repro.types import Schedule
from repro.obs.tracer import CAT_CHUNK, CAT_REGION, current_tracer
from repro.parallel.backend import Backend, RangeBody
from repro.parallel.partition import fixed_chunks, validate_chunk


class SequentialBackend(Backend):
    """Executes chunks in order in the calling thread."""

    nthreads = 1

    def parallel_for(
        self,
        total: int,
        body: RangeBody,
        schedule: "Schedule | str" = Schedule.STATIC,
        chunk: int | None = None,
    ) -> None:
        schedule = Schedule.coerce(schedule)
        chunk = validate_chunk(chunk)
        if chunk is not None:
            ranges = fixed_chunks(total, chunk)
        else:
            ranges = [(0, total)] if total > 0 else []
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span(
                "parallel_for", cat=CAT_REGION, backend="sequential",
                schedule=schedule.value, nchunks=len(ranges), nthreads=1,
            ):
                for lo, hi in ranges:
                    with tracer.span(
                        "chunk", cat=CAT_CHUNK, backend="sequential",
                        schedule=schedule.value, lo=lo, hi=hi,
                    ):
                        body(lo, hi)
            return
        for lo, hi in ranges:
            body(lo, hi)
