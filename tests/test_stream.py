"""Tests for streaming tensor accumulation."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.generate import powerlaw_stream
from repro.sptensor import COOTensor
from repro.stream import SlidingWindowTensor, StreamingTensorBuilder


class TestStreamingBuilder:
    def test_duplicates_sum(self):
        b = StreamingTensorBuilder((4, 4))
        b.push(np.array([[0, 0], [0, 0], [1, 1]]), np.array([1.0, 2.0, 5.0]))
        t = b.finish()
        d = t.to_dense()
        assert d[0, 0] == 3.0 and d[1, 1] == 5.0
        assert t.nnz == 2

    def test_matches_one_shot_coalesce(self):
        rng = np.random.default_rng(0)
        shape = (50, 40, 8)
        coords = rng.integers(0, [50, 40, 8], size=(5000, 3))
        values = rng.random(5000)
        b = StreamingTensorBuilder(shape, merge_threshold=512)
        for lo in range(0, 5000, 700):
            b.push(coords[lo:lo + 700], values[lo:lo + 700])
        got = b.finish()
        want = COOTensor(shape, coords, values).coalesce()
        assert got.allclose(want, rtol=1e-5, atol=1e-6)

    def test_bounded_staging_triggers_merges(self):
        b = StreamingTensorBuilder((100, 100), merge_threshold=100)
        rng = np.random.default_rng(1)
        for _ in range(10):
            b.push(rng.integers(0, 100, size=(60, 2)), rng.random(60))
        assert b.merges >= 5
        assert b.events_seen == 600

    def test_consume_powerlaw_stream(self):
        shape = (300, 300, 6)
        b = StreamingTensorBuilder(shape, merge_threshold=1000)
        b.consume(powerlaw_stream(4000, shape, dense_modes=(2,), seed=2, batch=512))
        t = b.finish()
        assert b.events_seen == 4000
        assert 0 < t.nnz <= 4000  # hot keys revisited
        assert not t.has_duplicates()

    def test_empty_stream(self):
        b = StreamingTensorBuilder((5, 5))
        assert b.finish().nnz == 0

    def test_bad_batch_shapes(self):
        b = StreamingTensorBuilder((5, 5))
        with pytest.raises(ShapeError):
            b.push(np.zeros((3, 3), dtype=int), np.zeros(3))
        with pytest.raises(ShapeError):
            b.push(np.zeros((3, 2), dtype=int), np.zeros(2))

    def test_current_nnz_progresses(self):
        b = StreamingTensorBuilder((10, 10), merge_threshold=10**6)
        b.push(np.array([[1, 1]]), np.array([1.0]))
        assert b.current_nnz == 1


class TestSlidingWindow:
    def test_state_equals_window_sum(self):
        rng = np.random.default_rng(3)
        shape = (20, 20)
        w = SlidingWindowTensor(shape, window=3)
        batches = [
            (rng.integers(0, 20, size=(30, 2)), rng.random(30))
            for _ in range(6)
        ]
        for coords, values in batches:
            w.push(coords, values)
        state = w.state
        # state must equal sum of the last 3 batches
        want = COOTensor.empty(shape).astype(np.float64)
        from repro.kernels import coo_tew

        for coords, values in batches[-3:]:
            want = coo_tew(want, COOTensor(shape, coords, values).coalesce(), "add")
        np.testing.assert_allclose(
            state.to_dense(), want.to_dense(), rtol=1e-5, atol=1e-6
        )
        assert w.nbatches == 3

    def test_eviction_removes_entries(self):
        w = SlidingWindowTensor((5, 5), window=1)
        w.push(np.array([[0, 0]]), np.array([1.0]))
        w.push(np.array([[4, 4]]), np.array([2.0]))
        d = w.state.to_dense()
        assert d[0, 0] == 0.0 and d[4, 4] == 2.0

    def test_window_validation(self):
        with pytest.raises(ShapeError):
            SlidingWindowTensor((5, 5), window=0)

    def test_push_validates_bounds_immediately(self):
        w = SlidingWindowTensor((5, 5), window=2)
        with pytest.raises(ShapeError):
            w.push(np.array([[5, 0]]), np.array([1.0]))
        b = StreamingTensorBuilder((5, 5))
        with pytest.raises(ShapeError):
            b.push(np.array([[0, -6]]), np.array([1.0]))

    def test_push_coerces_integer_values(self):
        b = StreamingTensorBuilder((5, 5), merge_threshold=10**6)
        b.push(np.array([[1, 2]]), np.array([3]))
        assert np.issubdtype(b._staged_values[0].dtype, np.floating)
        w = SlidingWindowTensor((5, 5), window=2)
        w.push(np.array([[1, 2]]), np.array([3]))
        assert np.issubdtype(w.state.values.dtype, np.floating)

    def test_push_copies_input_arrays(self):
        coords = np.array([[1, 1]])
        values = np.array([2.0])
        w = SlidingWindowTensor((5, 5), window=3)
        w.push(coords, values)
        coords[0, 0] = 4
        values[0] = 99.0
        assert w.state.to_dense()[1, 1] == 2.0

    def test_exact_nnz_vs_current_nnz(self):
        b = StreamingTensorBuilder((10, 10), merge_threshold=10**6)
        b.push(np.array([[1, 1], [1, 1]]), np.array([1.0, 2.0]))
        # staged duplicates are overcounted by the cheap upper bound
        assert b.current_nnz == 2
        assert b.exact_nnz() == 1
        assert b.current_nnz == 1  # post-merge the bound is tight


def _window_reference(shape, batches):
    """The invariant: coalesce the concatenation of the live batches."""
    if not batches:
        return COOTensor.empty(shape)
    coords = np.concatenate([np.asarray(c) for c, _ in batches], axis=0)
    values = np.concatenate(
        [np.asarray(v, dtype=np.float64) for _, v in batches]
    )
    return COOTensor(shape, coords, values).coalesce()


def _assert_bit_exact(state, want):
    assert state.shape == want.shape
    np.testing.assert_array_equal(state.indices, want.indices)
    assert state.values.dtype == want.values.dtype
    np.testing.assert_array_equal(
        state.values.view(np.uint8), want.values.view(np.uint8)
    )


class TestExactEviction:
    """The sliding window is bit-identical to re-coalescing.

    These are the regression tests for the eviction-corruption bug: an
    old subtract-and-drop eviction destroyed genuine values <= its
    tolerance and drifted state through float residue.
    """

    @pytest.mark.parametrize("window", [1, 3, 10])
    def test_random_stream_bit_exact(self, window):
        rng = np.random.default_rng(11)
        shape = (12, 9, 4)
        w = SlidingWindowTensor(shape, window=window)
        live = []
        for step in range(7):  # window 10 > nbatches: nothing ever evicts
            n = int(rng.integers(1, 40))
            coords = rng.integers(0, shape, size=(n, 3))
            values = rng.random(n, dtype=np.float64)
            w.push(coords, values)
            live.append((coords, values))
            live = live[-window:]
            _assert_bit_exact(w.state, _window_reference(shape, live))
        assert w.nbatches == min(7, window)
        assert w.evictions == max(0, 7 - window)
        assert w.version == 7

    def test_tiny_values_survive(self):
        # Genuine magnitudes below the old drop tolerance (1e-12) must
        # survive any number of evictions.
        shape = (4, 4)
        w = SlidingWindowTensor(shape, window=2)
        for i in range(5):
            w.push(np.array([[i % 4, 0]]), np.array([1e-15]))
        state = w.state
        assert state.nnz == 2
        assert np.all(state.values == 1e-15)

    def test_exact_cancellation_keeps_explicit_zero(self):
        # +1 and -1 at the same coordinate in the live window sum to an
        # explicit 0.0 entry — coalesce() keeps it, so exact mode must.
        shape = (3, 3)
        w = SlidingWindowTensor(shape, window=2)
        w.push(np.array([[1, 1]]), np.array([1.0]))
        w.push(np.array([[1, 1]]), np.array([-1.0]))
        want = _window_reference(
            shape,
            [(np.array([[1, 1]]), np.array([1.0])),
             (np.array([[1, 1]]), np.array([-1.0]))],
        )
        assert want.nnz == 1  # the reference itself keeps the zero
        _assert_bit_exact(w.state, want)

    def test_no_float_residue_after_eviction(self):
        # 0.1 + 0.2 - 0.1 != 0.2 in binary floating point: a subtracting
        # eviction leaves residue at [0,0]; the rebuild is residue-free.
        shape = (2, 2)
        w = SlidingWindowTensor(shape, window=1)
        w.push(np.array([[0, 0]]), np.array([0.1]))
        w.push(np.array([[0, 0]]), np.array([0.2]))
        state = w.state
        assert state.nnz == 1
        assert state.values[0] == np.float64(0.2)

    def test_powerlaw_stream_windowed_bit_exact(self):
        shape = (64, 64, 8)
        w = SlidingWindowTensor(shape, window=3)
        live = []
        for coords, values in powerlaw_stream(
            3000, shape, dense_modes=(2,), seed=9, batch=512
        ):
            w.push(coords, values)
            live.append((coords, values.astype(np.float64)))
            live = live[-3:]
        # reference in the same dtype the window accumulates
        coords = np.concatenate([c for c, _ in live], axis=0)
        values = np.concatenate([np.asarray(v) for _, v in live]).astype(
            np.float32
        )
        want = COOTensor(shape, coords, values).coalesce()
        _assert_bit_exact(w.state, want)


class TestLazyWindow:
    def test_push_never_coalesces_and_reads_memoize(self, monkeypatch):
        calls = []
        coalesce = COOTensor.coalesce

        def counting(self):
            calls.append(self.nnz)
            return coalesce(self)

        monkeypatch.setattr(COOTensor, "coalesce", counting)
        rng = np.random.default_rng(2)
        w = SlidingWindowTensor((10, 10), window=3)
        expired = [
            w.push(rng.integers(0, 10, size=(20, 2)), rng.random(20))
            for _ in range(6)
        ]
        assert calls == []
        assert expired == [None, None, None, 0, 1, 2]
        first = w.state
        assert w.state is first
        assert calls == [60]
        w.push(np.array([[1, 1]]), np.array([1.0]))
        assert w.state is not first and len(calls) == 2
