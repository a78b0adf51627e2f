"""End-to-end integration: generate → reorder → convert → compute → decompose.

One test per realistic pipeline, chaining many subsystems the way a
downstream user would — the failure mode these catch is interface drift
between modules that unit tests miss.
"""

import numpy as np
import pytest

from repro.bench import RunnerConfig, SuiteRunner
from repro.datasets import make_surrogate
from repro.generate import get_synthetic, powerlaw_tensor
from repro.kernels import coo_mttkrp, csf_mttkrp, hicoo_mttkrp
from repro.methods import cp_als
from repro.roofline import BLUESKY, RooflineModel, extract_features
from repro.sptensor import (
    CSFTensor,
    HiCOOTensor,
    as_format,
    degree_reorder,
    read_tns,
    to_coo,
    write_tns,
)
from repro.validate import validate_tensor


class TestGenerateToDecompose:
    def test_synthetic_to_cp(self):
        """Table 3 config -> HiCOO -> CP-ALS converges identically to COO."""
        t = get_synthetic("irrS").generate(scale=5000, seed=4).astype(np.float64)
        h = HiCOOTensor.from_coo(t, 64)
        a = cp_als(t, rank=4, n_iters=5, seed=0, tol=0.0)
        b = cp_als(h, rank=4, n_iters=5, seed=0, tol=0.0)
        np.testing.assert_allclose(a.fits, b.fits, rtol=1e-8)

    def test_surrogate_through_file_roundtrip_to_kernels(self, tmp_path):
        """Table 2 surrogate -> .tns on disk -> reload -> all formats agree."""
        t = make_surrogate("uber4d", scale=4000, seed=5)
        p = tmp_path / "uber.tns"
        write_tns(t, p)
        back = read_tns(p).astype(np.float64)
        mats = [
            np.random.default_rng(1).random((s, 4)) for s in back.shape
        ]
        want = coo_mttkrp(back, mats, 0)
        np.testing.assert_allclose(
            hicoo_mttkrp(HiCOOTensor.from_coo(back, 16), mats, 0),
            want,
            rtol=1e-8,
        )
        np.testing.assert_allclose(
            csf_mttkrp(CSFTensor.from_coo(back), mats, 0), want, rtol=1e-8
        )

    def test_reorder_then_run(self):
        """Stream-shaped tensor -> degree reorder -> both formats -> runner."""
        t = powerlaw_tensor((3000, 3000, 16), 15_000, dense_modes=(2,), seed=6)
        reordered, _ = degree_reorder(t)
        for fmt in ("coo", "hicoo"):
            converted = as_format(reordered, fmt)
            assert to_coo(converted).allclose(reordered)
        runner = SuiteRunner(
            BLUESKY, RunnerConfig(measure_host=False, cache_scale=2000)
        )
        records = runner.run_tensor("pipeline", reordered)
        assert len(records) == 10
        assert all(r.gflops > 0 for r in records)

    def test_roofline_consistency_with_runner(self):
        """The runner's bound must equal the model's bound for the same
        features — no drift between the two code paths."""
        t = powerlaw_tensor((2000, 2000, 8), 8_000, dense_modes=(2,), seed=7)
        runner = SuiteRunner(
            BLUESKY, RunnerConfig(measure_host=False, cache_scale=1.0)
        )
        records = runner.run_tensor("x", t)
        feats = extract_features(t.copy().sort(), "x", 128)
        model = RooflineModel(BLUESKY)
        for rec in records:
            want = model.bound_for(feats, rec.kernel, rec.fmt)
            assert rec.bound_gflops == pytest.approx(want, rel=1e-6)

    def test_selfcheck_on_generated(self):
        t = get_synthetic("regS").generate(scale=20000, seed=8)
        assert validate_tensor(t, nthreads=2).passed
