"""Span-based tracing for the parallel execution stack.

The paper's observations are *explanations* of kernel time — which worker
ran which chunk, how long, how many scatter updates collided — yet a
benchmark that only reports end-to-end seconds cannot support them.  This
module records that missing structure:

* :class:`Tracer` — nestable wall-clock **spans**
  (``with tracer.span("mttkrp", fmt="coo", mode=0): ...``) and instant
  markers, buffered *per worker*: events land in the
  buffer of the backend worker slot executing them
  (:func:`repro.parallel.slots.current_slot`), falling back to a
  per-OS-thread buffer outside backend chunks.  A worker slot is held
  exclusively while a chunk runs, so buffer appends are thread-confined
  and need no locking on the hot path.
* :class:`NullTracer` — the installed-by-default no-op.  Instrumentation
  sites are written as ``if tracer.enabled: ...`` so a disabled span
  costs one attribute load and one branch; ``NullTracer.span`` returns a
  shared reentrant null context for call sites that skip the guard.
* :func:`current_tracer` / :meth:`Tracer.install` — process-global
  registration.  Instrumented code (backends, kernels, the GPU cost
  model) always reads the global, so enabling tracing is one call and
  requires no plumbing through kernel signatures; the race-check and
  chaos backends inherit the installed tracer the same way.

The recorded trace freezes into an immutable :class:`Trace` for the
analytics (:mod:`repro.obs.analytics`) and exporters
(:mod:`repro.obs.export`).  The tracer records spans only: counters and
gauges live in the metrics registry (:mod:`repro.obs.registry`).
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field

# Imported lazily: ``repro.parallel`` instruments itself against this
# module, so a module-level import of ``repro.parallel.slots`` would close
# an import cycle whenever ``repro.obs`` loads first.
_current_slot = None


def current_slot():
    """Proxy for :func:`repro.parallel.slots.current_slot` (lazy-bound)."""
    global _current_slot
    if _current_slot is None:
        from repro.parallel.slots import current_slot as cs
        _current_slot = cs
    return _current_slot()

#: Event categories used by the suite's instrumentation sites.
CAT_REGION = "region"   # one parallel_for / map_ranges loop
CAT_CHUNK = "chunk"     # one chunk executed by one worker slot
CAT_KERNEL = "kernel"   # one kernel invocation (mttkrp, ttv, ...)
CAT_GPU = "gpu"         # one simulated GPU launch
CAT_CASE = "case"       # one sweep-executor case attempt
CAT_REQUEST = "request" # one serve-daemon request (client → result)
CAT_SCHED = "sched"     # one scheduler execution (dequeue → case done)


@dataclass
class SpanEvent:
    """One closed span (or instant marker) recorded by a worker."""

    name: str
    cat: str
    t0: float
    t1: float
    #: Backend worker slot executing the span, or -1 outside any chunk.
    slot: int
    #: Nesting depth within the recording thread at the time of entry.
    depth: int
    #: Ancestor span names (same thread) ending with this span's name —
    #: the folded-stack path the flame summary groups by.
    path: tuple
    attrs: dict
    #: Instant events mark a point in time (``t1 == t0``).
    instant: bool = False
    #: Worker label and Chrome-trace thread id, resolved at freeze time.
    worker: str = ""
    tid: int = 0

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0


class _WorkerBuffer:
    """Events of one worker (slot or plain thread)."""

    __slots__ = ("key", "events")

    def __init__(self, key: tuple):
        self.key = key
        self.events: list[SpanEvent] = []


class _Span:
    """Context manager recording one span on exit.

    A fresh ``_Span`` is created per :meth:`Tracer.span` call, so the same
    tracer can have any number of spans open concurrently across threads.
    """

    __slots__ = ("_tracer", "name", "cat", "attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._stack().append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        slot = current_slot()
        tracer._buffer().events.append(
            SpanEvent(
                name=self.name,
                cat=self.cat,
                t0=self._t0,
                t1=t1,
                slot=-1 if slot is None else int(slot),
                depth=len(stack),
                path=tuple(s.name for s in stack) + (self.name,),
                attrs=self.attrs,
            )
        )


@dataclass(frozen=True)
class Trace:
    """An immutable snapshot of the spans a :class:`Tracer` recorded.

    Events are sorted by start time with ``worker``/``tid`` resolved (slot
    ``n`` becomes ``worker-n`` with Chrome tid ``n``; non-slot threads
    become ``thread-i`` with tids starting at :data:`EXTERNAL_TID_BASE`).
    """

    events: tuple
    meta: dict = field(default_factory=dict)
    #: Traces adopted from other processes (worker subprocesses) — kept
    #: separate rather than merged, so exporters can assign per-process
    #: pids and timelines (:func:`repro.obs.export.merge_traces`).
    children: tuple = ()
    #: ``time.time() - time.perf_counter()`` sampled when the recording
    #: tracer was created.  Event timestamps are perf-counter values with
    #: a per-process epoch; adding this offset places them on the shared
    #: wall clock so traces from different processes align.
    epoch_offset_s: float = 0.0

    @property
    def t0(self) -> float:
        return min((e.t0 for e in self.events), default=0.0)

    @property
    def wall_s(self) -> float:
        """End-to-end wall clock spanned by the recorded events."""
        if not self.events:
            return 0.0
        return max(e.t1 for e in self.events) - self.t0

    def spans(self, cat: "str | None" = None):
        """Closed (non-instant) spans, optionally of one category."""
        return [
            e for e in self.events
            if not e.instant and (cat is None or e.cat == cat)
        ]

    @property
    def workers(self) -> list:
        """Worker labels observed in the trace, slot workers first."""
        seen: dict[str, None] = {}
        for e in self.events:
            seen.setdefault(e.worker)
        return sorted(seen, key=lambda w: (not w.startswith("worker-"), w))

    # -- wire form (worker verdict JSON) ------------------------------- #
    def to_dict(self) -> dict:
        """A JSON-safe form carrying the full trace across processes.

        This is how a worker subprocess ships its frozen trace home
        inside the case verdict; :meth:`from_dict` round-trips it so the
        parent can :meth:`Tracer.adopt` the result.
        """
        return {
            "events": [
                {
                    "name": e.name,
                    "cat": e.cat,
                    "t0": e.t0,
                    "t1": e.t1,
                    "slot": e.slot,
                    "depth": e.depth,
                    "path": list(e.path),
                    "attrs": dict(e.attrs),
                    "instant": e.instant,
                    "worker": e.worker,
                    "tid": e.tid,
                }
                for e in self.events
            ],
            "meta": dict(self.meta),
            "epoch_offset_s": self.epoch_offset_s,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        events = tuple(
            SpanEvent(
                name=e["name"],
                cat=e["cat"],
                t0=float(e["t0"]),
                t1=float(e["t1"]),
                slot=int(e.get("slot", -1)),
                depth=int(e.get("depth", 0)),
                path=tuple(e.get("path", ())),
                attrs=dict(e.get("attrs", {})),
                instant=bool(e.get("instant", False)),
                worker=e.get("worker", ""),
                tid=int(e.get("tid", 0)),
            )
            for e in data.get("events", ())
        )
        return cls(
            events=events,
            meta=dict(data.get("meta", {})),
            children=tuple(
                cls.from_dict(c) for c in data.get("children", ())
            ),
            epoch_offset_s=float(data.get("epoch_offset_s", 0.0)),
        )


#: Chrome-trace tids for events recorded outside any backend worker slot.
EXTERNAL_TID_BASE = 1000


class Tracer:
    """Collects spans; install process-wide to enable.

    >>> tracer = Tracer()
    >>> with tracer:                    # install() / uninstall()
    ...     with tracer.span("work", cat="kernel", mode=0):
    ...         tracer.annotate(nnz=128)
    >>> trace = tracer.freeze()
    >>> [s.name for s in trace.spans()]
    ['work']
    """

    enabled = True

    def __init__(self, meta: "dict | None" = None, trace_id: str = ""):
        self.meta = dict(meta or {})
        self.trace_id = str(trace_id or "")
        if self.trace_id:
            self.meta.setdefault("trace_id", self.trace_id)
        self._buffers: dict[tuple, _WorkerBuffer] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._prev: "Tracer | NullTracer | None" = None
        self._children: list = []
        # Wall-clock anchor pairing perf-counter timestamps with the
        # shared epoch; see Trace.epoch_offset_s.
        self._epoch_offset_s = time.time() - time.perf_counter()

    # -- recording ----------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _buffer(self) -> _WorkerBuffer:
        slot = current_slot()
        key = ("slot", int(slot)) if slot is not None else ("tid", threading.get_ident())
        buf = self._buffers.get(key)
        if buf is None:
            with self._lock:
                buf = self._buffers.setdefault(key, _WorkerBuffer(key))
        return buf

    def span(self, name: str, cat: str = CAT_KERNEL, **attrs) -> _Span:
        """A context manager recording ``name`` with wall-clock bounds.

        Spans nest: entering a span inside another (on the same thread)
        records the ancestor path, so the flame summary can fold stacks.
        The executing worker slot is captured automatically.
        """
        return _Span(self, name, cat, attrs)

    def instant(self, name: str, cat: str = CAT_KERNEL, **attrs) -> None:
        """Record a zero-duration marker (e.g. one simulated GPU launch)."""
        now = time.perf_counter()
        slot = current_slot()
        stack = self._stack()
        self._buffer().events.append(
            SpanEvent(
                name=name,
                cat=cat,
                t0=now,
                t1=now,
                slot=-1 if slot is None else int(slot),
                depth=len(stack),
                path=tuple(s.name for s in stack) + (name,),
                attrs=attrs,
                instant=True,
            )
        )

    def annotate(self, **attrs) -> None:
        """Merge attributes into the innermost open span of this thread.

        Lets a kernel body enrich the *backend's* chunk span (e.g. with
        the entry count it processed) without threading span handles
        through call signatures.  No-op outside any open span.
        """
        stack = self._stack()
        if stack:
            stack[-1].attrs.update(attrs)

    def adopt(self, trace: Trace) -> None:
        """Attach a frozen trace from another process as a child.

        The executor calls this with the trace a worker subprocess
        returned in its verdict; :meth:`freeze` carries adopted traces
        through as :attr:`Trace.children`.  Thread-safe — verdicts land
        on scheduler pool threads.
        """
        with self._lock:
            self._children.append(trace)

    # -- lifecycle ----------------------------------------------------- #
    def install(self) -> "Tracer":
        """Make this the process-global tracer read by instrumentation."""
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        """Restore the tracer that was active before :meth:`install`."""
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = self._prev if self._prev is not None else NULL_TRACER
            self._prev = None

    __enter__ = install

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def clear(self) -> None:
        """Drop all recorded events."""
        with self._lock:
            self._buffers.clear()

    # -- snapshot ------------------------------------------------------ #
    def freeze(self) -> Trace:
        """Resolve worker identities and return an immutable snapshot.

        Safe to call repeatedly; recording may continue afterwards (the
        snapshot copies event lists, not the events themselves).
        """
        with self._lock:
            buffers = list(self._buffers.values())
            children = tuple(self._children)
        slot_keys = sorted(b.key[1] for b in buffers if b.key[0] == "slot")
        thread_keys = [b.key for b in buffers if b.key[0] == "tid"]
        labels: dict[tuple, tuple] = {
            ("slot", s): (f"worker-{s}", s) for s in slot_keys
        }
        for i, key in enumerate(sorted(thread_keys, key=lambda k: k[1])):
            labels[key] = (f"thread-{i}", EXTERNAL_TID_BASE + i)
        events: list[SpanEvent] = []
        for buf in buffers:
            label, tid = labels[buf.key]
            for e in buf.events:
                e.worker, e.tid = label, tid
                events.append(e)
        events.sort(key=lambda e: (e.t0, e.t1))
        return Trace(
            events=tuple(events),
            meta=dict(self.meta),
            children=children,
            epoch_offset_s=self._epoch_offset_s,
        )


#: Shared reentrant no-op context manager handed out by the null tracer.
_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Installed by default so instrumentation sites can unconditionally
    read :func:`current_tracer`; the ``enabled`` flag lets hot paths skip
    even the null calls with a single branch.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, cat: str = CAT_KERNEL, **attrs):
        return _NULL_SPAN

    def instant(self, name: str, cat: str = CAT_KERNEL, **attrs) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass


NULL_TRACER = NullTracer()

_ACTIVE: "Tracer | NullTracer" = NULL_TRACER

# Thread-local tracer overlay.  The serve daemon handles concurrent
# traced requests on a shared worker pool, so a process-global install
# would interleave unrelated requests into one trace; scoped_tracer()
# binds a request's tracer to the pool thread executing its case.
_TLS_SCOPE = threading.local()


def current_tracer() -> "Tracer | NullTracer":
    """The active tracer: this thread's scoped one, else the global."""
    tracer = getattr(_TLS_SCOPE, "tracer", None)
    return _ACTIVE if tracer is None else tracer


@contextlib.contextmanager
def scoped_tracer(tracer: "Tracer | NullTracer"):
    """Make ``tracer`` current on this thread for the ``with`` body."""
    prev = getattr(_TLS_SCOPE, "tracer", None)
    _TLS_SCOPE.tracer = tracer
    try:
        yield tracer
    finally:
        _TLS_SCOPE.tracer = prev
