"""OpenMP-like thread-pool backend.

Mirrors ``#pragma omp parallel for schedule(...)``:

* ``static``  — the iteration space is pre-split into one chunk per thread;
* ``dynamic`` — fixed-size chunks are pulled from a shared queue;
* ``guided``  — chunk sizes decay as the remaining work shrinks.

Chunks run on a persistent :class:`~concurrent.futures.ThreadPoolExecutor`.
Because kernel bodies are NumPy ufunc calls that release the GIL, chunks
execute concurrently on multicore hosts; on a single core the backend
degrades gracefully to interleaved execution with identical results.

Every chunk executes under a leased *worker slot*
(:class:`~repro.parallel.slots.SlotPool`) — the ``omp_get_thread_num()``
analogue that chunk spans are tagged with, so worker identity survives
executor recycling and OS thread-ident reuse.

Error semantics: a failing chunk causes ``parallel_for``/``map_ranges`` to
raise the failure of the *earliest chunk in chunk order* (not an arbitrary
member of an unordered ``wait()`` set) after cancelling chunks that have
not started yet.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

from repro.types import Schedule
from repro.obs.tracer import CAT_CHUNK, CAT_REGION, current_tracer
from repro.parallel.backend import Backend, RangeBody
from repro.parallel.partition import plan_ranges
from repro.parallel.slots import SlotPool, bound_slot


def _default_nthreads() -> int:
    """Paper protocol: one thread per physical core (env override wins)."""
    env = os.environ.get("REPRO_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


class OpenMPBackend(Backend):
    """Thread-pool executor with OpenMP-style scheduling."""

    def __init__(self, nthreads: int | None = None, default_chunk: int = 2048):
        self.nthreads = nthreads if nthreads else _default_nthreads()
        self.default_chunk = int(default_chunk)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._slots = SlotPool(self.nthreads)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = ThreadPoolExecutor(
                        max_workers=self.nthreads, thread_name_prefix="repro-omp"
                    )
        return pool

    def shutdown(self) -> None:
        """Tear down the worker pool (tests; otherwise lives with process).

        The backend stays usable: the next loop lazily recreates the
        executor, and worker slots survive the recycled worker threads.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def plan(
        self,
        total: int,
        schedule: "Schedule | str" = Schedule.STATIC,
        chunk: int | None = None,
    ) -> list[tuple[int, int]]:
        """The chunk decomposition ``parallel_for`` would execute.

        Exposed so the race-check and chaos backends replay the identical
        decomposition this backend runs.
        """
        return plan_ranges(total, schedule, chunk, self.nthreads, self.default_chunk)

    def parallel_for(
        self,
        total: int,
        body: RangeBody,
        schedule: "Schedule | str" = Schedule.STATIC,
        chunk: int | None = None,
    ) -> None:
        self._execute(
            self.plan(total, schedule, chunk),
            body,
            schedule=str(getattr(schedule, "value", schedule)),
        )

    def map_ranges(self, ranges, body: RangeBody) -> None:
        self._execute(list(ranges), body, schedule="explicit")

    def _execute(
        self,
        ranges: list[tuple[int, int]],
        body: RangeBody,
        schedule: str = "explicit",
    ) -> None:
        if not ranges:
            return

        tracer = current_tracer()
        if tracer.enabled:
            # One span per chunk (tagged with the executing worker slot at
            # span exit) nested under one region span on the caller
            # thread.  Disabled tracing never reaches this wrapping: the
            # hot path pays one branch, zero per chunk.
            inner = body

            def body(lo: int, hi: int, _inner=inner) -> None:
                with tracer.span(
                    "chunk", cat=CAT_CHUNK, backend="openmp",
                    schedule=schedule, lo=lo, hi=hi,
                ):
                    _inner(lo, hi)

            region = tracer.span(
                "parallel_for", cat=CAT_REGION, backend="openmp",
                schedule=schedule, nchunks=len(ranges),
                nthreads=self.nthreads,
            )
            with region:
                self._run_ranges(ranges, body)
            return
        self._run_ranges(ranges, body)

    def _run_ranges(self, ranges: list[tuple[int, int]], body: RangeBody) -> None:
        def run_chunk(lo: int, hi: int) -> None:
            with self._slots.lease():
                body(lo, hi)

        if len(ranges) == 1 or self.nthreads == 1:
            # Caller-thread execution: bind slot 0 directly instead of
            # leasing, so a direct call concurrent with a saturated
            # executor cannot exhaust the slot pool.  Chunk bodies keep no
            # slot-keyed state, so concurrent direct callers may share
            # slot 0.
            for lo, hi in ranges:
                with bound_slot(0):
                    body(lo, hi)
            return
        pool = self._ensure_pool()
        futures = [pool.submit(run_chunk, lo, hi) for lo, hi in ranges]
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        if pending:
            # Only non-empty when some chunk failed: cancel chunks that
            # have not started, let the uncancellable ones drain.
            for f in pending:
                f.cancel()
            wait(futures)
        for f in futures:  # chunk order, so the first failure wins
            if f.cancelled():
                continue
            exc = f.exception()
            if exc is not None:
                raise exc
