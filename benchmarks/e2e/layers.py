"""Outside-in layer timing for the traced benchmark run.

The benchmark adds no spans inside ``src/``.  A traced run instead wraps
the public module attributes through which each layer is entered (for
example ``repro.bench.executor.materialize_tensor``).  Each wrapper
records a ``layer.<name>`` span in the installed repro tracer and adds
the call's wall time to a per-layer total.  Nothing is wrapped in an
untraced run, and every wrapper is removed when the clock closes.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

#: Span category of the wrapper spans in the exported Chrome trace.
CAT_LAYER = "layer"


class LayerClock:
    """Wall time, call counts and per-call samples of wrapped layer entries.

    Use as a context manager: entering installs ``tracer`` process-wide,
    leaving removes every wrapper and uninstalls the tracer.  Totals are
    inclusive; callers subtract nested layers themselves (see
    :func:`budget`).  Safe to call from several threads.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.totals: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.samples: dict = defaultdict(list)
        #: Per-call sizes (bytes) of layers wrapped with ``size``.
        self.sizes: dict = defaultdict(list)
        self._lock = threading.Lock()
        self._undo: list = []

    def __enter__(self) -> "LayerClock":
        self.tracer.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
        self.tracer.uninstall()

    def add(self, layer: str, seconds: float) -> None:
        with self._lock:
            self.totals[layer] += seconds
            self.calls[layer] += 1
            self.samples[layer].append(seconds)

    def reset(self) -> None:
        """Forget everything measured so far (wrappers stay installed)."""
        with self._lock:
            self.totals.clear()
            self.calls.clear()
            self.samples.clear()
            self.sizes.clear()

    def wrap(self, owner, name: str, layer, size=None) -> None:
        """Time every call of ``owner.name`` (a function or a method).

        ``layer`` is a layer name, or a function of the call's arguments
        returning one (``SuiteRunner.run_kernel`` is charged to ``gpu`` or
        ``cpumodel`` by the runner's platform).  ``size``, a function of
        the call's arguments, records how many bytes each call handled.
        """
        raw = inspect.getattr_static(owner, name)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            label = layer(*args, **kwargs) if callable(layer) else layer
            if size is not None:
                with clock._lock:
                    clock.sizes[label].append(size(*args, **kwargs))
            t0 = time.perf_counter()
            with clock.tracer.span(f"layer.{label}", cat=CAT_LAYER):
                try:
                    return fn(*args, **kwargs)
                finally:
                    clock.add(label, time.perf_counter() - t0)

        setattr(owner, name, classmethod(timed) if is_classmethod else timed)
        self._undo.append((owner, name, raw))

    def wrap_generator(self, owner, name: str, layer: str) -> None:
        """Time each item a generator function ``owner.name`` produces."""
        raw = inspect.getattr_static(owner, name)
        clock = self

        @functools.wraps(raw)
        def timed(*args, **kwargs):
            items = iter(raw(*args, **kwargs))
            while True:
                t0 = time.perf_counter()
                with clock.tracer.span(f"layer.{layer}", cat=CAT_LAYER):
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        clock.add(layer, time.perf_counter() - t0)
                yield item

        setattr(owner, name, timed)
        self._undo.append((owner, name, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


def budget(parts: dict, capacity_s: float) -> dict:
    """Each layer's share of ``capacity_s``, plus the unattributed rest.

    ``parts`` maps a layer to its exclusive busy seconds.  ``capacity_s``
    is the measured wall time times the number of threads or processes
    doing the work, so the shares and ``unattributed.share`` sum to 1.
    A negative residual means the wrappers counted some time twice.
    """
    shares = {f"{layer}.share": s / capacity_s for layer, s in parts.items()}
    shares["unattributed.share"] = 1.0 - sum(shares.values())
    return shares
