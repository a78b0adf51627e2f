"""The suite's backends own the cores: every loaded OpenBLAS runs on one
thread, unless ``OPENBLAS_NUM_THREADS`` says otherwise."""

import json
import os
import subprocess
import sys

import pytest

from repro.parallel import blas_threads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_loaded_openblas_runs_one_thread():
    if "OPENBLAS_NUM_THREADS" in os.environ:
        pytest.skip("OPENBLAS_NUM_THREADS is set, so it decides the count")
    found = blas_threads()
    if not found:
        pytest.skip("no OpenBLAS loaded in this process")
    assert [n for _, n in found] == [1] * len(found), found


def test_environment_setting_is_left_alone():
    if not blas_threads():
        pytest.skip("no OpenBLAS loaded in this process")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, repro.parallel as p; "
         "print(json.dumps([n for _, n in p.blas_threads()]))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    counts = json.loads(out)
    assert counts and set(counts) == {2}, out
