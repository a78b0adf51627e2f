"""Tests for the biased power-law stream generator."""

import math

import numpy as np
import pytest

from repro.datasets import surrogate
from repro.errors import GenerationError
from repro.generate import (
    get_synthetic,
    kronecker_tensor,
    powerlaw_indices,
    powerlaw_stream,
    powerlaw_tensor,
)
from repro.generate import kronecker
from repro.generate import registry as generate_registry
from repro.generate.resample import distinct_coords
from repro.generate.graph import (
    degree_distribution,
    degree_tail_ratio,
    powerlaw_exponent_mle,
)
from repro.sptensor import COOTensor
from repro.types import VALUE_DTYPE
from repro.util.prng import rng_from_seed


class TestPowerlawIndices:
    def test_range_and_count(self):
        rng = np.random.default_rng(0)
        idx = powerlaw_indices(5000, 1000, 2.0, rng)
        assert len(idx) == 5000
        assert idx.min() >= 0 and idx.max() < 1000

    def test_heavy_tail(self):
        rng = np.random.default_rng(1)
        idx = powerlaw_indices(20000, 10000, 2.2, rng, shuffle_map=False)
        counts = np.bincount(idx)
        # rank-0 key should dominate strongly
        assert counts[0] > 0.2 * len(idx)

    def test_alpha_controls_skew(self):
        rng = np.random.default_rng(2)
        mild = powerlaw_indices(20000, 1000, 1.5, np.random.default_rng(2), shuffle_map=False)
        steep = powerlaw_indices(20000, 1000, 3.0, np.random.default_rng(2), shuffle_map=False)
        assert np.bincount(steep)[0] > np.bincount(mild)[0]

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GenerationError):
            powerlaw_indices(10, 0, 2.0, rng)
        with pytest.raises(GenerationError):
            powerlaw_indices(10, 10, 1.0, rng)

    def test_shuffle_map_scatters_hubs(self):
        a = powerlaw_indices(1000, 500, 2.0, np.random.default_rng(3), shuffle_map=False)
        b = powerlaw_indices(1000, 500, 2.0, np.random.default_rng(3), shuffle_map=True)
        # unshuffled hubs sit at low ranks; shuffled ones are spread
        assert a.mean() < b.mean()


class TestPowerlawTensor:
    def test_exact_nnz_distinct(self):
        t = powerlaw_tensor((2000, 2000, 16), 3000, dense_modes=(2,), seed=0)
        assert t.nnz == 3000
        assert not t.has_duplicates()

    def test_determinism(self):
        a = powerlaw_tensor((500, 500, 8), 800, seed=9)
        b = powerlaw_tensor((500, 500, 8), 800, seed=9)
        assert a.allclose(b)

    def test_dense_mode_fully_occupied(self):
        """A short uniform mode is effectively dense (the paper's
        irregular tensors have 'one mode completely dense')."""
        t = powerlaw_tensor((5000, 5000, 12), 10000, dense_modes=(2,), seed=1)
        from repro.sptensor import mode_fill

        assert mode_fill(t, 2) == 1.0

    def test_sparse_modes_powerlaw(self):
        t = powerlaw_tensor((20000, 20000, 8), 30000, dense_modes=(2,), seed=2)
        deg = degree_distribution(t, 0)
        alpha = powerlaw_exponent_mle(deg, dmin=2)
        assert 1.2 < alpha < 4.0
        assert degree_tail_ratio(deg) > 0.05

    def test_capacity_check(self):
        with pytest.raises(GenerationError):
            powerlaw_tensor((3, 3), 100, seed=0)

    def test_hub_saturation_raises(self):
        """Extremely steep power laws cannot realize many distinct
        coordinates; the generator reports it rather than spinning."""
        with pytest.raises(GenerationError):
            powerlaw_tensor((20, 20), 350, alpha=8.0, seed=0, max_rounds=4)

    def test_4th_order_two_dense_modes(self):
        t = powerlaw_tensor(
            (3000, 3000, 10, 14), 5000, dense_modes=(2, 3), seed=3
        )
        assert t.nmodes == 4
        assert t.nnz == 5000


class TestPowerlawStream:
    def test_batches_accumulate_to_tensor(self):
        shape = (400, 400, 8)
        parts = list(powerlaw_stream(5000, shape, dense_modes=(2,), seed=4, batch=1024))
        assert sum(len(v) for _, v in parts) == 5000
        coords = np.concatenate([c for c, _ in parts])
        vals = np.concatenate([v for _, v in parts])
        t = COOTensor(shape, coords, vals).coalesce()
        assert 0 < t.nnz <= 5000  # stream revisits hot keys

    def test_stream_has_duplicates(self):
        """Unlike the tensor generator, the raw stream revisits keys."""
        shape = (50, 50, 4)
        parts = list(powerlaw_stream(5000, shape, seed=5))
        coords = np.concatenate([c for c, _ in parts])
        uniq = np.unique(coords, axis=0)
        assert len(uniq) < len(coords)


# --------------------------------------------------------------------- #
# Oracle: the row-wise resample loop both generators ran before they
# shared repro.generate.resample.  Kept verbatim (only the per-generator
# draw is a parameter) so every tensor can be checked bit for bit.
# --------------------------------------------------------------------- #


def reference_loop(nnz, order, draw_rows, rng, max_rounds, saturated):
    collected = np.empty((0, order), dtype=np.int64)
    for _ in range(max_rounds):
        need = nnz - collected.shape[0]
        if need <= 0:
            break
        draw = max(need + 16, int(need * 1.3))
        coords = draw_rows(draw)
        collected = np.unique(
            np.concatenate([collected, coords], axis=0), axis=0
        )
    if collected.shape[0] < nnz:
        raise GenerationError(saturated(collected.shape[0]))
    perm = rng.permutation(collected.shape[0])[:nnz]
    coords = collected[perm]
    return coords


def reference_powerlaw_tensor(
    shape, nnz, alpha=2.0, dense_modes=(), seed=None, max_rounds=64,
):
    shape = tuple(int(s) for s in shape)
    order = len(shape)
    dense = set(int(m) % order for m in dense_modes)
    rng = rng_from_seed(seed)

    def draw_rows(draw):
        cols = []
        for m in range(order):
            if m in dense:
                cols.append(rng.integers(0, shape[m], size=draw))
            else:
                cols.append(powerlaw_indices(draw, shape[m], alpha, rng))
        return np.stack(cols, axis=1)

    coords = reference_loop(
        nnz, order, draw_rows, rng, max_rounds,
        lambda got: (
            f"could not realize {nnz} distinct non-zeros in shape {shape}: "
            f"power-law hubs saturated after {max_rounds} rounds "
            f"(got {got}); lower alpha or nnz"
        ),
    )
    values = (rng.random(nnz) + 0.5).astype(VALUE_DTYPE)
    return COOTensor(shape, coords, values, copy=False, check=False)


def reference_kronecker_tensor(shape, nnz, seed=None, max_rounds=64, initiator=None):
    shape = tuple(int(s) for s in shape)
    order = len(shape)
    if initiator is None:
        initiator = kronecker.default_initiator(order)
    dim = initiator.shape[0]
    iterations = max(1, math.ceil(math.log(max(shape), dim)))
    rng = rng_from_seed(seed)
    shape_arr = np.asarray(shape, dtype=np.int64)

    def draw_rows(draw):
        coords = kronecker._sample_coords(initiator, iterations, draw, rng)
        keep = (coords < shape_arr).all(axis=1)
        return coords[keep]

    coords = reference_loop(
        nnz, order, draw_rows, rng, max_rounds,
        lambda got: (
            f"could not realize {nnz} distinct non-zeros in shape {shape} "
            f"after {max_rounds} rounds (got {got}); the "
            "initiator may be too concentrated for this density"
        ),
    )
    values = (rng.random(nnz) + 0.5).astype(VALUE_DTYPE)
    return COOTensor(shape, coords, values, copy=False, check=False)


def assert_same_tensor(got, want):
    assert got.shape == want.shape
    assert got.indices.dtype == want.indices.dtype
    assert got.values.dtype == want.values.dtype
    assert got.indices.flags.c_contiguous and want.indices.flags.c_contiguous
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.values, want.values)


class TestResampleOracle:
    @pytest.mark.parametrize("name,seed", [
        ("choa", 1), ("choa", 2), ("vast", 1), ("vast", 3),
        ("nell2", 0), ("nell2", 1),
    ])
    def test_surrogates_match_reference(self, monkeypatch, name, seed):
        got = surrogate.make_surrogate(name, seed=seed)
        monkeypatch.setattr(surrogate, "powerlaw_tensor", reference_powerlaw_tensor)
        assert_same_tensor(got, surrogate.make_surrogate(name, seed=seed))

    def test_cpd_als_shape_matches_reference(self):
        args = ((8000, 8000, 64), 100_000)
        assert_same_tensor(
            powerlaw_tensor(*args, dense_modes=(2,), seed=0),
            reference_powerlaw_tensor(*args, dense_modes=(2,), seed=0),
        )

    @pytest.mark.parametrize("name,wide", [("regS", False), ("regM4d", True)])
    def test_kronecker_configs_match_reference(self, monkeypatch, name, wide):
        # regM4d at scale 1000 has more than 2**63 cells: the loop keeps
        # its row-wise unique there.
        cfg = get_synthetic(name)
        assert (math.prod(cfg.scaled_shape(1000.0)) >= 2**63) == wide
        got = cfg.generate(seed=4)
        monkeypatch.setattr(
            generate_registry, "kronecker_tensor", reference_kronecker_tensor
        )
        assert_same_tensor(got, cfg.generate(seed=4))

    def test_kronecker_strip_matches_reference(self):
        init = np.full((3, 3, 3), 1.0 / 27)
        assert_same_tensor(
            kronecker_tensor((50, 70, 81), 900, initiator=init, seed=6),
            reference_kronecker_tensor((50, 70, 81), 900, initiator=init, seed=6),
        )

    @pytest.mark.parametrize("shape,nnz,seed", [
        ((2, 2, 1024), 1, 0),
        ((2, 2, 1024), 1, 3),
        ((2, 2, 1024), 4, 0),
        ((2, 2**62, 2**62), 1, 0),  # more than 2**63 cells
    ])
    def test_kronecker_empty_rounds_match_reference(self, shape, nnz, seed):
        # Nearly every candidate falls outside these shapes, so most
        # rounds keep nothing: the result, or the saturation error, must
        # still be the reference loop's.
        try:
            want = reference_kronecker_tensor(shape, nnz, seed=seed)
        except GenerationError as err:
            with pytest.raises(GenerationError) as got:
                kronecker_tensor(shape, nnz, seed=seed)
            assert str(got.value) == str(err)
        else:
            assert_same_tensor(kronecker_tensor(shape, nnz, seed=seed), want)

    def test_powerlaw_beyond_int64_cells_matches_reference(self):
        shape = (2**16, 2**16, 2**16, 7)  # 7 * 2**48 cells < 2**63
        wide = (2**16, 2**16, 2**16, 2**16)  # 2**64 cells
        for s in (shape, wide):
            assert_same_tensor(
                powerlaw_tensor(s, 3000, dense_modes=(3,), seed=8),
                reference_powerlaw_tensor(s, 3000, dense_modes=(3,), seed=8),
            )

    @pytest.mark.parametrize("shape", [(300, 200, 9), (2**16,) * 4])
    def test_loop_output_is_c_contiguous_int64(self, shape):
        def draws(seed):
            rng = np.random.default_rng(seed)
            return rng, lambda count: [
                rng.integers(0, s, size=count) for s in shape
            ]

        rng, draw = draws(3)
        got = distinct_coords(shape, 2000, draw, rng, 64, str)
        rng, draw = draws(3)
        want = reference_loop(
            2000, len(shape), lambda n: np.stack(draw(n), axis=1), rng, 64, str
        )
        assert got.dtype == want.dtype == np.int64
        assert got.shape == (2000, len(shape))
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_powerlaw_saturation_count_matches_reference(self):
        args = dict(alpha=8.0, seed=0, max_rounds=4)
        with pytest.raises(GenerationError) as want:
            reference_powerlaw_tensor((20, 20), 350, **args)
        with pytest.raises(GenerationError) as got:
            powerlaw_tensor((20, 20), 350, **args)
        assert "(got " in str(got.value)
        assert str(got.value) == str(want.value)

    def test_kronecker_saturation_count_matches_reference(self):
        with pytest.raises(GenerationError) as want:
            reference_kronecker_tensor((2, 2, 2), 9, seed=0, max_rounds=3)
        with pytest.raises(GenerationError) as got:
            kronecker_tensor((2, 2, 2), 9, seed=0, max_rounds=3)
        assert "(got " in str(got.value)
        assert str(got.value) == str(want.value)
