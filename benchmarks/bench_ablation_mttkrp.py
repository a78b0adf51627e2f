"""Ablation — Mttkrp update strategy: atomic scatter vs sort-reduce vs
owner-computes row partitioning.

The paper's reference COO-Mttkrp uses atomics; the lock-avoiding
sort-reduce alternative (cited as the tuned approach) trades a sort for
contention-free updates; owner-computes pre-buckets non-zeros by disjoint
output-row ranges so no synchronization is needed at all (and results are
bit-identical to the sequential kernel).  Contention depends on the
tensor: power-law tensors hammer hub rows, Kronecker tensors spread more
evenly.  ``atomic`` executes as owner-computes too; the performance
model still charges it for atomics (see ``bench_hotpaths.py`` for the
tracked threaded timings).
"""

import pytest

from repro.kernels import coo_mttkrp

METHODS = ["atomic", "sort", "owner"]


@pytest.mark.parametrize("method", METHODS)
def test_mttkrp_method_powerlaw(benchmark, bench_tensor, bench_mats, method):
    out = benchmark(lambda: coo_mttkrp(bench_tensor, bench_mats, 0, method=method))
    assert out.shape == (bench_tensor.shape[0], 16)


@pytest.mark.parametrize("method", METHODS)
def test_mttkrp_method_kronecker(benchmark, bench_kron_tensor, method):
    import numpy as np

    rng = np.random.default_rng(2)
    mats = [
        rng.random((s, 16)).astype(np.float32) for s in bench_kron_tensor.shape
    ]
    out = benchmark(
        lambda: coo_mttkrp(bench_kron_tensor, mats, 0, method=method)
    )
    assert out.shape[0] == bench_kron_tensor.shape[0]


def test_methods_agree(bench_tensor, bench_mats):
    import numpy as np

    a = coo_mttkrp(bench_tensor, bench_mats, 1, method="atomic")
    b = coo_mttkrp(bench_tensor, bench_mats, 1, method="sort")
    c = coo_mttkrp(bench_tensor, bench_mats, 1, method="owner")
    np.testing.assert_allclose(a, b, rtol=1e-3)
    # owner is not merely close — it is the sequential result, bit for bit
    np.testing.assert_array_equal(a, c)
