"""One owner of the cores: OpenBLAS runs single-threaded.

The suite's backends run one thread per core.  NumPy's bundled OpenBLAS
keeps its own worker per CPU, and after each call (CP-ALS's
``m @ pinv(v)`` and Gram products sit between two Mttkrps) those workers
busy-wait while the backend's threads run, so the kernel shares its cores
with spinning BLAS threads.  :func:`pin_blas_threads` sets every OpenBLAS
mapped into the process to one thread, unless ``OPENBLAS_NUM_THREADS`` is
set in the environment, which then stays in charge.
"""

from __future__ import annotations

import ctypes
import os

_SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)
_GETTERS = (
    "openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _openblas_libraries() -> list:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split(None, 5)[-1].strip() for line in f}
    except OSError:
        return []
    return sorted(
        p for p in paths
        if "openblas" in os.path.basename(p).lower() and ".so" in p and os.path.exists(p)
    )


def _first_symbol(path: str, names):
    lib = ctypes.CDLL(path)
    for name in names:
        if hasattr(lib, name):
            return getattr(lib, name)
    return None


def blas_threads() -> list:
    """``(library path, thread count)`` of every OpenBLAS loaded."""
    out = []
    for path in _openblas_libraries():
        get = _first_symbol(path, _GETTERS)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            out.append((path, int(get())))
    return out


def pin_blas_threads() -> None:
    """Run every loaded OpenBLAS on one thread (a no-op when none is
    loaded or ``OPENBLAS_NUM_THREADS`` is set)."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    for path in _openblas_libraries():
        set_threads = _first_symbol(path, _SETTERS)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
