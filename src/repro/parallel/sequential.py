"""Single-threaded backend — the reference executor.

Runs every loop in the calling thread, as one whole-range chunk by
default, so a kernel's one lowering runs unchanged whether or not threads
are available (important on single-core CI machines).
"""

from __future__ import annotations

from repro.types import Schedule
from repro.obs.tracer import CAT_CHUNK, CAT_REGION, current_tracer
from repro.parallel.backend import Backend, RangeBody
from repro.parallel.partition import (
    chunk_ranges,
    fixed_chunks,
    guided_chunks,
    validate_chunk,
)


class SequentialBackend(Backend):
    """Executes chunks in order in the calling thread."""

    nthreads = 1

    def __init__(self, chunks_hint: int = 1):
        #: How many chunks to cut loops into even though execution is
        #: serial; >1 exercises the same code paths as threaded runs.
        self.chunks_hint = max(1, int(chunks_hint))

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
        elif schedule is Schedule.GUIDED:
            ranges = guided_chunks(total, self.chunks_hint)
        else:
            ranges = chunk_ranges(total, self.chunks_hint)
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
