"""Ablation — OpenMP scheduling strategy (static/dynamic/guided).

The paper parallelizes with "different scheduling strategies"; this
ablation times the fiber-parallel Ttv (the imbalance-sensitive kernel)
under each schedule, on the thread backend.  Mttkrp takes no schedule: its
threads own output-row ranges (``bench_ablation_mttkrp.py``).
"""

import pytest

from repro.kernels import coo_ttv
from repro.parallel import OpenMPBackend
from repro.types import Schedule


@pytest.fixture(scope="module")
def omp():
    be = OpenMPBackend(nthreads=4)
    yield be
    be.shutdown()


@pytest.mark.parametrize("schedule", list(Schedule))
def test_ttv_schedule(benchmark, bench_tensor, bench_vectors, omp, schedule):
    out = benchmark(
        lambda: coo_ttv(bench_tensor, bench_vectors[2], 2, backend=omp,
                        schedule=schedule)
    )
    assert out.nnz > 0

