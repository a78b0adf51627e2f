"""Tests for the simulated GPU substrate."""

import numpy as np
import pytest

from repro.errors import PatternMismatchError, ShapeError
from repro.gpu import (
    P100,
    V100,
    DeviceSpec,
    atomic_time,
    effective_bandwidth,
    get_device,
    gpu_coo_mttkrp,
    gpu_hicoo_mttkrp,
    gpu_tew,
    gpu_ts,
    gpu_ttm,
    gpu_ttv,
    memory_time,
    tew_timing,
)
from repro.kernels import dense_mttkrp, dense_ttm, dense_ttv
from repro.roofline.platform import BLUESKY
from repro.sptensor import COOTensor, HiCOOTensor


@pytest.fixture(scope="module")
def x():
    return COOTensor.random((400, 300, 50), nnz=15_000, rng=7).astype(np.float64)


@pytest.fixture(scope="module")
def h(x):
    return HiCOOTensor.from_coo(x, 64)


@pytest.fixture(scope="module")
def mats(x):
    rng = np.random.default_rng(0)
    return [rng.random((s, 8)) for s in x.shape]


class TestDevices:
    def test_paper_parameters(self):
        assert P100.sm_count == 56 and V100.sm_count == 80
        assert V100.llc_bytes == 2 * P100.llc_bytes
        assert V100.atomic_gups > P100.atomic_gups
        assert V100.address_overlap > P100.address_overlap

    def test_lookup(self):
        assert get_device("p100") is P100
        assert get_device("DGX-1V") is V100
        with pytest.raises(KeyError):
            get_device("a100")

    def test_cpu_platform_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec.from_platform(BLUESKY)


class TestCostModel:
    def test_memory_time_converges_to_bandwidth(self):
        """Many balanced blocks -> total_bytes / BW."""
        blocks = np.full(10_000, 4096.0)
        t, imb, bw, res = memory_time(P100, blocks, working_set_bytes=float("inf"))
        ideal = blocks.sum() / (P100.dram_bw_gbs * 1e9)
        assert t == pytest.approx(ideal, rel=0.05)
        assert imb == pytest.approx(1.0, rel=0.05)
        assert not res

    def test_single_block_cannot_saturate(self):
        """One block gets 1/W of the device bandwidth."""
        t, imb, _, _ = memory_time(P100, np.array([1e6]), float("inf"))
        ideal = 1e6 / (P100.dram_bw_gbs * 1e9)
        assert t == pytest.approx(ideal * P100.max_concurrent_blocks, rel=0.01)
        assert imb == pytest.approx(P100.max_concurrent_blocks, rel=0.01)

    def test_imbalance_stretches_makespan(self):
        balanced = np.full(1000, 1000.0)
        skewed = balanced.copy()
        skewed[0] = 500_000.0
        t_b, _, _, _ = memory_time(P100, balanced, float("inf"))
        t_s, imb_s, _, _ = memory_time(P100, skewed, float("inf"))
        assert t_s > t_b
        assert imb_s > 1.5

    def test_cache_residency_boosts_bandwidth(self):
        blocks = np.full(1000, 512.0)
        _, _, bw_small, res_small = memory_time(P100, blocks, working_set_bytes=1024)
        _, _, bw_big, res_big = memory_time(P100, blocks, working_set_bytes=1e9)
        assert res_small and not res_big
        assert bw_small > bw_big

    def test_effective_bandwidth(self):
        bw, res = effective_bandwidth(V100, V100.llc_bytes - 1)
        assert res and bw == V100.llc_bw_gbs
        bw, res = effective_bandwidth(V100, V100.llc_bytes + 1)
        assert not res and bw == V100.dram_bw_gbs

    def test_atomic_time_scales(self):
        low = atomic_time(P100, 1e6, 1.0)
        high = atomic_time(P100, 1e6, 1000.0)
        assert high > low > 0
        assert atomic_time(P100, 0, 10.0) == 0.0

    def test_v100_atomics_faster(self):
        assert atomic_time(V100, 1e6, 50.0) < atomic_time(P100, 1e6, 50.0)

    def test_atomic_requires_gpu(self):
        cpu_like = DeviceSpec(
            name="cpu", sm_count=1, blocks_per_sm=1, threads_per_block=1,
            peak_sp_gflops=1, dram_bw_gbs=1, llc_bytes=1, llc_bw_gbs=1,
            atomic_gups=0.0,
        )
        with pytest.raises(ValueError):
            atomic_time(cpu_like, 10, 1.0)

    def test_empty_launch(self):
        t, imb, _, _ = memory_time(P100, np.zeros(0), None)
        assert t == 0.0 and imb == 1.0


class TestGpuKernels:
    def test_tew_value_correct(self, x):
        res = gpu_tew(x, x, "add", P100, assume_same_pattern=True)
        np.testing.assert_allclose(res.value.values, 2 * x.values)
        assert res.seconds > P100.launch_overhead_s

    def test_ts_value_correct(self, x):
        res = gpu_ts(x, 3.0, "mul", V100)
        np.testing.assert_allclose(res.value.values, 3 * x.values)

    def test_ttv_value_correct(self, x):
        v = np.random.default_rng(1).random(x.shape[2])
        res = gpu_ttv(x, v, 2, P100)
        np.testing.assert_allclose(
            res.value.to_dense(), dense_ttv(x.to_dense(), v, 2), rtol=1e-8
        )

    def test_ttm_value_correct(self, x, mats):
        res = gpu_ttm(x, mats[1], 1, V100)
        np.testing.assert_allclose(
            res.value.to_dense(), dense_ttm(x.to_dense(), mats[1], 1), rtol=1e-8
        )

    def test_mttkrp_value_correct(self, x, mats):
        res = gpu_coo_mttkrp(x, mats, 0, P100)
        np.testing.assert_allclose(
            res.value, dense_mttkrp(x.to_dense(), mats, 0), rtol=1e-8
        )

    def test_hicoo_mttkrp_matches_coo(self, x, h, mats):
        a = gpu_coo_mttkrp(x, mats, 0, V100)
        b = gpu_hicoo_mttkrp(h, mats, 0, V100)
        np.testing.assert_allclose(a.value, b.value, rtol=1e-8)

    def test_tew_timing_counts_the_merged_pattern(self, x):
        # Two patterns: the launch covers the union, which the timing-only
        # model has to merge to count.
        y = COOTensor.random(x.shape, nnz=9_000, rng=8).astype(np.float64)
        full = gpu_tew(x, y, "add", P100)
        assert full.value.nnz > x.nnz
        assert tew_timing(x, y, "add", P100) == full.timing

    def test_tew_timing_checks_inputs_like_gpu_tew(self, x):
        other = COOTensor.random(x.shape, nnz=x.nnz - 1, rng=8).astype(np.float64)
        wide = COOTensor.random(
            tuple(s + 1 for s in x.shape), nnz=x.nnz, rng=8
        ).astype(np.float64)
        for y, err in ((other, PatternMismatchError), (wide, ShapeError)):
            for fn in (gpu_tew, tew_timing):
                with pytest.raises(err):
                    fn(x, y, "add", P100, assume_same_pattern=True)

    def test_hicoo_kernels_accept_hicoo(self, h):
        res = gpu_ts(h, 2.0, "mul", P100)
        assert isinstance(res.value, HiCOOTensor)

    def test_gflops_helper(self, x):
        res = gpu_ts(x, 2.0, "mul", P100)
        assert res.gflops(x.nnz) == pytest.approx(x.nnz / res.seconds / 1e9)


class TestPaperStructure:
    """The structural GPU effects behind Observations 2 and 4."""

    def test_v100_mttkrp_faster_than_p100(self, x, mats):
        t_p = gpu_coo_mttkrp(x, mats, 0, P100).seconds
        t_v = gpu_coo_mttkrp(x, mats, 0, V100).seconds
        assert t_v < t_p

    def test_hicoo_mttkrp_not_faster_on_gpu(self, x, h, mats):
        t_coo = gpu_coo_mttkrp(x, mats, 0, V100).seconds
        t_hic = gpu_hicoo_mttkrp(h, mats, 0, V100).seconds
        assert t_hic >= 0.9 * t_coo

    def test_skewed_fibers_hurt_ttv(self):
        """A tensor with one giant fiber is slower than a balanced one of
        equal size (COO-Ttv-GPU load imbalance)."""
        rng = np.random.default_rng(3)
        n = 20_000
        balanced = COOTensor(
            (n // 4, 4, 50),
            np.stack(
                [np.repeat(np.arange(n // 4), 4)[:n],
                 np.tile(np.arange(4), n // 4)[:n],
                 rng.integers(0, 50, n)], axis=1,
            ),
            rng.random(n),
        ).coalesce()
        m = balanced.nnz
        skew_inds = np.stack(
            [np.zeros(m, dtype=np.int64),
             np.zeros(m, dtype=np.int64),
             rng.permutation(max(m, 50))[:m] % 50], axis=1,
        )
        # one fiber holds almost everything
        skew_inds[: m // 50, 2] = np.arange(m // 50) % 50
        skewed = COOTensor((n // 4, 4, 50), skew_inds, rng.random(m)).coalesce()
        v = rng.random(50)
        t_bal = gpu_ttv(balanced, v, 2, P100).timing
        t_skw = gpu_ttv(skewed, v, 2, P100).timing
        assert t_skw.imbalance > t_bal.imbalance
