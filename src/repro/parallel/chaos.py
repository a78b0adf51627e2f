"""Chaos backend: seeded adversarial scheduling for the thread-pool paths.

Correct parallel kernels must not care *which* worker runs a chunk, in
what order chunks complete, or whether the OS recycles worker threads
mid-run.  :class:`ChaosBackend` wraps :class:`~repro.parallel.openmp.
OpenMPBackend` and makes those freedoms adversarial — deterministically,
from a seed — so tests can pin down bugs that real schedulers only
surface once in a thousand runs:

* **Shuffled completion order** — the planned chunks execute one at a
  time in a seeded random permutation, so any hidden dependency on chunk
  order (e.g. a reduction that assumes ascending ranges) breaks
  reproducibly.
* **Worker churn** — a seeded fraction of chunks run on a *fresh*
  ``threading.Thread`` instead of the executor.  Churned threads stay
  parked (alive) until the region ends, which guarantees their OS thread
  idents are all distinct, so any state keyed by OS thread instead of by
  worker slot multiplies here, deterministically.
* **Injected chunk failures** — a seeded probability (or an explicit
  chunk-index set) raises :class:`ChaosError` instead of running the
  chunk, exercising the error path: remaining chunks are skipped
  (mirroring the executor's cancellation) and the failure of the earliest
  chunk in *chunk order* is raised.

Chunks execute one at a time, so data races cannot corrupt results here —
that is :class:`~repro.parallel.racecheck.RaceCheckBackend`'s job.  Chaos
targets *lifetime and ordering* bugs: stale caches, order-dependent
reductions, unpropagated errors.
"""

from __future__ import annotations

import random
import threading

from repro.types import Schedule
from repro.obs.tracer import CAT_CHUNK, CAT_REGION, current_tracer
from repro.parallel.backend import Backend, RangeBody
from repro.parallel.openmp import OpenMPBackend


class ChaosError(RuntimeError):
    """An injected chunk failure (never raised by real kernel code)."""


class ChaosBackend(Backend):
    """Adversarial-but-deterministic wrapper around an OpenMP backend.

    Parameters
    ----------
    inner:
        The wrapped :class:`OpenMPBackend` (owns planning and the
        executor).  Defaults to a fresh 4-thread backend.
    seed:
        Seeds every chaotic decision; identical seeds replay identical
        schedules, churn points, and failures.
    shuffle:
        Execute chunks in a seeded random order (default on).
    churn:
        Probability in ``[0, 1]`` that a chunk runs on a fresh, parked
        thread instead of the executor (worker churn).
    failure_rate:
        Probability in ``[0, 1]`` of injecting a :class:`ChaosError`
        instead of running a chunk.
    fail_chunks:
        Explicit chunk indices (in chunk order) to fail, for targeted
        error-path tests; combined with ``failure_rate``.
    """

    def __init__(
        self,
        inner: "OpenMPBackend | None" = None,
        *,
        seed: int = 0,
        shuffle: bool = True,
        churn: float = 0.0,
        failure_rate: float = 0.0,
        fail_chunks=(),
    ):
        self.inner = inner if inner is not None else OpenMPBackend(nthreads=4)
        if not hasattr(self.inner, "plan"):
            raise TypeError(
                "ChaosBackend needs an inner backend exposing plan() "
                f"(got {type(self.inner).__name__})"
            )
        self.nthreads = self.inner.nthreads
        self.seed = int(seed)
        self.shuffle = bool(shuffle)
        self.churn = float(churn)
        self.failure_rate = float(failure_rate)
        self.fail_chunks = frozenset(int(c) for c in fail_chunks)
        self._rng = random.Random(self.seed)
        self._parked: list[threading.Thread] = []
        self._park = threading.Event()
        #: Total fresh threads spawned by churn (observability for tests).
        self.churned = 0

    def reseed(self, seed: int) -> None:
        """Restart the deterministic chaos stream."""
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def drain(self) -> None:
        """Release and join parked churn threads (end-of-region/cleanup)."""
        if not self._parked:
            return
        self._park.set()
        for t in self._parked:
            t.join()
        self._parked.clear()
        self._park = threading.Event()

    def shutdown(self) -> None:
        self.drain()
        self.inner.shutdown()

    def parallel_for(
        self,
        total: int,
        body: RangeBody,
        schedule: "Schedule | str" = Schedule.STATIC,
        chunk: int | None = None,
    ) -> None:
        self._execute(self.inner.plan(total, schedule, chunk), body)

    def map_ranges(self, ranges, body: RangeBody) -> None:
        self._execute(list(ranges), body)

    def _run_churned(self, body: RangeBody, lo: int, hi: int) -> None:
        """Run one chunk on a fresh thread that parks until drain().

        Parking keeps the thread alive, so every churned chunk in a region
        is guaranteed a *distinct* OS thread ident — no reliance on the
        allocator declining to reuse idents of joined threads.
        """
        errbox: list[BaseException] = []
        done = threading.Event()
        park = self._park

        def target() -> None:
            try:
                body(lo, hi)
            except BaseException as exc:  # noqa: BLE001 - relayed below
                errbox.append(exc)
            finally:
                done.set()
                park.wait()

        t = threading.Thread(target=target, name="repro-chaos-churn")
        t.start()
        self._parked.append(t)
        self.churned += 1
        done.wait()
        if errbox:
            raise errbox[0]

    def _execute(self, ranges: list[tuple[int, int]], body: RangeBody) -> None:
        if not ranges:
            return
        order = list(range(len(ranges)))
        if self.shuffle:
            self._rng.shuffle(order)
        # Draw per-chunk fates in *chunk order* so the outcome depends on
        # the seed alone, not on the shuffled execution order.
        fates = [
            (
                self.failure_rate > 0 and self._rng.random() < self.failure_rate,
                self.churn > 0 and self._rng.random() < self.churn,
            )
            for _ in ranges
        ]
        pool = self.inner._ensure_pool() if self.inner.nthreads > 1 else None

        # The process-global tracer propagates into chaos runs, so the
        # adversarial schedule (shuffle order, churned chunks) is
        # inspectable in the exported trace.
        tracer = current_tracer()
        if tracer.enabled:
            inner_body = body

            def body(lo: int, hi: int, _inner=inner_body) -> None:
                with tracer.span(
                    "chunk", cat=CAT_CHUNK, backend="chaos", lo=lo, hi=hi,
                ):
                    _inner(lo, hi)

            region = tracer.span(
                "chaos", cat=CAT_REGION, backend="chaos",
                nchunks=len(ranges), nthreads=self.nthreads,
                seed=self.seed, shuffle=self.shuffle,
            )
            region.__enter__()
        else:
            region = None

        def run_chunk(lo: int, hi: int) -> None:
            with self.inner._slots.lease():
                body(lo, hi)

        errors: dict[int, BaseException] = {}
        try:
            for ci in order:
                lo, hi = ranges[ci]
                fail, churn = fates[ci]
                if fail or ci in self.fail_chunks:
                    errors[ci] = ChaosError(
                        f"injected failure in chunk {ci} [{lo}, {hi})"
                    )
                    # Mirror the executor's cancellation: later chunks in
                    # execution order never start.
                    break
                try:
                    if churn:
                        self._run_churned(run_chunk, lo, hi)
                    elif pool is not None:
                        pool.submit(run_chunk, lo, hi).result()
                    else:
                        run_chunk(lo, hi)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors[ci] = exc
                    break
        finally:
            self.drain()
            if region is not None:
                region.__exit__(None, None, None)
        if errors:
            raise errors[min(errors)]
