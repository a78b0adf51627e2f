"""Tests for the stochastic Kronecker tensor generator."""

import numpy as np
import pytest

from repro.errors import GenerationError
from repro.generate import default_initiator, kronecker_tensor
from repro.generate.graph import degree_distribution, degree_tail_ratio
from repro.generate.kronecker import _sample_coords


def reference_sample_coords(initiator, iterations, count, rng):
    """The sampler as first written: ``rng.choice`` over the initiator
    cells, ``np.unravel_index`` and one loop step per level."""
    order, dim = initiator.ndim, initiator.shape[0]
    flat = initiator.ravel().astype(np.float64)
    flat = flat / flat.sum()
    cells = rng.choice(flat.size, size=(count, iterations), p=flat)
    digits = np.stack(np.unravel_index(cells, initiator.shape), axis=0)
    coords = np.zeros((count, order), dtype=np.int64)
    for it in range(iterations):
        coords = coords * dim + digits[:, :, it].T
    return coords


class TestInitiator:
    def test_shape_and_normalization(self):
        init = default_initiator(3)
        assert init.shape == (2, 2, 2)
        assert init.sum() == pytest.approx(1.0)

    def test_corner_weighted(self):
        init = default_initiator(3, skew=0.5)
        assert init[0, 0, 0] == init.max()
        assert init[1, 1, 1] == init.min()

    def test_order4(self):
        assert default_initiator(4).ndim == 4

    def test_invalid_params(self):
        with pytest.raises(GenerationError):
            default_initiator(3, dim=1)
        with pytest.raises(GenerationError):
            default_initiator(3, skew=1.5)


class TestKroneckerTensor:
    def test_exact_nnz_distinct_in_bounds(self):
        t = kronecker_tensor((100, 100, 100), 2000, seed=0)
        assert t.nnz == 2000
        assert not t.has_duplicates()
        assert int(t.indices.max()) < 100

    def test_determinism(self):
        a = kronecker_tensor((64, 64, 64), 500, seed=42)
        b = kronecker_tensor((64, 64, 64), 500, seed=42)
        assert a.allclose(b)

    def test_seeds_differ(self):
        a = kronecker_tensor((64, 64, 64), 500, seed=1)
        b = kronecker_tensor((64, 64, 64), 500, seed=2)
        assert not a.pattern_equals(b)

    def test_non_power_shape_stripped(self):
        """The strip-oversize trick handles non-power-of-2 dims."""
        t = kronecker_tensor((100, 77, 50), 800, seed=3)
        assert t.nnz == 800
        maxs = t.indices.max(axis=0).astype(int)
        assert maxs[0] < 100 and maxs[1] < 77 and maxs[2] < 50

    def test_4th_order(self):
        t = kronecker_tensor((32, 32, 32, 32), 600, seed=4)
        assert t.nmodes == 4
        assert t.nnz == 600

    def test_heavy_tail(self):
        """Kronecker tensors concentrate non-zeros in hub indices."""
        t = kronecker_tensor((512, 512, 512), 20000, seed=5)
        deg = degree_distribution(t, 0)
        # top 1% of vertices should own far more than 1% of non-zeros
        assert degree_tail_ratio(deg, quantile=0.99) > 0.05
        assert deg.max() > 5 * deg.mean()

    def test_custom_initiator(self):
        init = np.full((3, 3, 3), 1.0 / 27)
        t = kronecker_tensor((81, 81, 81), 400, initiator=init, seed=6)
        assert t.nnz == 400

    def test_initiator_validation(self):
        with pytest.raises(GenerationError):
            kronecker_tensor((10, 10), 5, initiator=np.ones((2, 2, 2)))
        with pytest.raises(GenerationError):
            kronecker_tensor((10, 10, 10), 5, initiator=np.ones((2, 3, 2)))
        with pytest.raises(GenerationError):
            kronecker_tensor((10, 10, 10), 5, initiator=-np.ones((2, 2, 2)))
        with pytest.raises(GenerationError):
            kronecker_tensor((10, 10, 10), 5, initiator=np.full((2, 2, 2), np.nan))

    def test_saturation_raises(self):
        """Requesting more nnz than the skewed model can realize fails
        loudly instead of looping forever."""
        with pytest.raises(GenerationError):
            kronecker_tensor((2, 2, 2), 9, max_rounds=3)

    def test_values_positive(self):
        t = kronecker_tensor((64, 64, 64), 300, seed=7)
        assert (t.values > 0).all()


class TestSamplerMatchesChoice:
    """The unrolled sampler draws what ``rng.choice`` drew, from the same
    stream, and leaves the generator in the same state."""

    @pytest.mark.parametrize("initiator,iterations,count", [
        (default_initiator(3), 11, 5000),
        (default_initiator(4), 7, 3000),
        (default_initiator(3, dim=3, skew=0.3), 5, 2000),
        # Zero-weight cells give repeated CDF edges.
        (np.array([[[0.5, 0.0], [0.0, 0.25]], [[0.0, 0.0], [0.25, 0.0]]]), 9, 4000),
        (default_initiator(3), 4, 0),
    ])
    def test_bit_identical_to_choice(self, initiator, iterations, count):
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = _sample_coords(initiator, iterations, count, got_rng)
        want = reference_sample_coords(initiator, iterations, count, want_rng)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape == (count, initiator.ndim)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
