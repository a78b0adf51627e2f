"""Worker-slot identity for the thread-pool backends.

OpenMP identifies a worker by its *logical* index
(``omp_get_thread_num()``), not by its OS thread: the identity that
matters is "which of the backend's ``nthreads`` execution slots is running
this chunk".  Raw ``threading.get_ident()`` values conflate the two —
thread idents outlive executor recycling, get reused by the OS, and
multiply under worker churn.

This module is the single source of worker identity: backends (and the
ingest workers) lease a slot in ``[0, nthreads)`` around each chunk they
execute (:class:`SlotPool`) and bind it to the running thread
(:func:`bound_slot`).  Trace spans, log records and metrics-registry cells
are tagged with :func:`current_slot`, so a trace shows one lane per
worker slot however many OS threads come and go.  Two chunks never share
a slot while both are in flight.
"""

from __future__ import annotations

import contextlib
import threading

_current = threading.local()


def current_slot() -> "int | None":
    """The worker slot bound to the calling thread, or ``None`` outside
    any backend-executed chunk."""
    return getattr(_current, "slot", None)


@contextlib.contextmanager
def bound_slot(slot: int):
    """Bind ``slot`` as the calling thread's worker identity."""
    prev = getattr(_current, "slot", None)
    _current.slot = int(slot)
    try:
        yield int(slot)
    finally:
        _current.slot = prev


class SlotPool:
    """Leases worker slots ``0..nslots-1`` to concurrently running chunks.

    A lease is scoped to one chunk execution: the slot is exclusive while
    held and returns to the free list when the chunk finishes, so a thread
    that dies mid-loop (worker churn) releases its identity for the next
    worker instead of stranding it.
    """

    __slots__ = ("nslots", "_free", "_lock")

    def __init__(self, nslots: int):
        self.nslots = max(1, int(nslots))
        # Pop from the end; reversed so low slots are handed out first.
        self._free = list(range(self.nslots))[::-1]
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def lease(self):
        """Exclusively hold one slot, bound to the calling thread."""
        with self._lock:
            if not self._free:
                raise RuntimeError(
                    f"SlotPool exhausted: more than {self.nslots} chunks "
                    "executing concurrently"
                )
            slot = self._free.pop()
        try:
            with bound_slot(slot):
                yield slot
        finally:
            with self._lock:
                self._free.append(slot)
