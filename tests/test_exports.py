"""Public exports resolve, and the light entry points stay light.

Every name a ``repro`` package lists in ``__all__`` must be importable
from it, so a re-export left behind by a deleted module fails here
instead of at a user's ``from repro.x import *``.

The library entry points that worker processes, the daemon and the
ingest path import must not load ``scipy.sparse``: it adds about 16 MiB
of resident memory to every process that imports it.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    mod = importlib.import_module(package)
    exported = getattr(mod, "__all__", [])
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{package}.__all__ lists missing names {missing}"
    assert len(set(exported)) == len(exported), f"{package}.__all__ repeats names"


def test_entry_points_do_not_load_scipy_sparse():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, repro, repro.bench.worker, repro.serve, repro.ingest; "
        "print(' '.join(sorted(m for m in sys.modules "
        "if m == 'scipy.sparse' or m.startswith('scipy.sparse.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "", f"scipy.sparse loaded: {proc.stdout}"
