"""Format machinery benchmarks: conversions, I/O, reorder, validation.

Pre-processing cost is part of the paper's trade-off analysis ("the time
required to translate between them" is one of the three format-choice
axes); these benches time every conversion path plus the suite's tensor
I/O on the reference workload.
"""

import os

import pytest

from repro.kernels.plans import fiber_plan
from repro.sptensor import (
    COOTensor,
    CSFTensor,
    GHiCOOTensor,
    HiCOOTensor,
    SemiCOOTensor,
    load_npz,
    read_tns,
    save_hicoo_npz,
    save_npz,
    write_tns,
)


def test_convert_hicoo(benchmark, bench_tensor):
    h = benchmark(lambda: HiCOOTensor.from_coo(bench_tensor, 128))
    assert h.nnz == bench_tensor.nnz


def test_convert_ghicoo_partial(benchmark, bench_tensor):
    g = benchmark(lambda: GHiCOOTensor.from_coo(bench_tensor, 128, (0, 1)))
    assert g.nnz == bench_tensor.nnz


def test_convert_csf(benchmark, bench_tensor):
    c = benchmark(lambda: CSFTensor.from_coo(bench_tensor))
    assert c.nnz == bench_tensor.nnz


def test_convert_scoo(benchmark, bench_tensor):
    sc = benchmark(lambda: SemiCOOTensor.from_coo(bench_tensor, (2,)))
    assert sc.nnz_sparse > 0


def test_hicoo_to_coo(benchmark, bench_hicoo):
    t = benchmark(bench_hicoo.to_coo)
    assert t.nnz == bench_hicoo.nnz


def test_sort_rowmajor(benchmark, bench_tensor):
    def run():
        t = bench_tensor.copy()
        t._sort_order = None
        return t.sort()

    benchmark(run)


def test_fiber_index(benchmark, bench_tensor):
    # A cold fiber plan build: every round plans a fresh copy, made in
    # the untimed setup, so no round finds a cached plan.
    plan = benchmark.pedantic(
        fiber_plan, setup=lambda: ((bench_tensor.copy(), 2), {}), rounds=5
    )
    assert plan.nfibers > 0


def test_write_read_tns(benchmark, bench_tensor, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "t.tns"

    def roundtrip():
        write_tns(bench_tensor, path)
        return read_tns(path)

    t = benchmark(roundtrip)
    assert t.nnz == bench_tensor.nnz


def test_save_load_npz(benchmark, bench_tensor, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "t.npz"

    def roundtrip():
        save_npz(bench_tensor, path)
        return load_npz(path)

    t = benchmark(roundtrip)
    assert t.nnz == bench_tensor.nnz


def test_save_hicoo_cache(benchmark, bench_hicoo, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "h.npz"
    benchmark(lambda: save_hicoo_npz(bench_hicoo, path))
    assert os.path.getsize(path) > 0


def test_selfcheck_small(benchmark):
    from repro.validate import validate_tensor

    t = COOTensor.random((40, 35, 30), nnz=1500, rng=9)
    report = benchmark(lambda: validate_tensor(t, nthreads=1))
    assert report.passed
