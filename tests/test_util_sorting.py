"""``stable_argsort`` is ``np.argsort(kind="stable")``, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sptensor.coo import COOTensor
from repro.util.sorting import stable_argsort


def assert_stable(keys):
    keys = np.asarray(keys)
    got = stable_argsort(keys)
    want = np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


class TestStableArgsort:
    @settings(max_examples=80, deadline=None)
    @given(
        dtype=st.sampled_from(INT_DTYPES),
        data=st.data(),
        ties=st.integers(1, 40),
    )
    def test_integers(self, dtype, data, ties):
        info = np.iinfo(dtype)
        # A small pool drawn anywhere in the dtype's range forces ties,
        # and wide pools (e.g. uint64 at or above 2**63, int64 extremes)
        # exercise the fallback.
        pool = data.draw(st.lists(st.integers(int(info.min), int(info.max)),
                                  min_size=1, max_size=ties))
        idx = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
        assert_stable(np.array([pool[i] for i in idx], dtype=dtype))

    @settings(max_examples=60, deadline=None)
    @given(keys=hnp.arrays(
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 60),
        elements=st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.25, np.inf, -np.inf, np.nan]),
    ))
    def test_floats_with_ties_signed_zeros_and_nans(self, keys):
        assert_stable(keys)

    @settings(max_examples=40, deadline=None)
    @given(keys=hnp.arrays(np.float64, st.integers(0, 60), unique=True,
                           elements=st.floats(allow_nan=False, width=64)))
    def test_distinct_floats(self, keys):
        assert_stable(keys)

    @pytest.mark.parametrize("dtype", INT_DTYPES + [np.float64])
    @pytest.mark.parametrize("keys", [[], [7], [3, 3], [5, 2], [2, 5]])
    def test_zero_one_and_two_elements(self, dtype, keys):
        assert_stable(np.array(keys, dtype=dtype))

    def test_uint64_at_or_above_2_63(self):
        top = np.uint64(2**64 - 1)
        keys = np.array([2**63, top, 2**63, 5, top, 2**63 + 1, 5], dtype=np.uint64)
        assert_stable(keys)
        # Narrow range high up: the position-composite path.
        assert_stable(np.array([2**63 + 3, 2**63, 2**63 + 3, 2**63], dtype=np.uint64))

    def test_negative_ties_and_int64_extremes(self):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        assert_stable(np.array([-3, -7, -3, 0, -7, 4, -3], dtype=np.int64))
        assert_stable(np.array([hi, lo, 0, hi, lo, -1, 0], dtype=np.int64))

    def test_large_tied_and_distinct_streams(self):
        rng = np.random.default_rng(3)
        assert_stable(rng.integers(0, 2, 100_000))  # radix, 8 bits
        assert_stable(rng.integers(-30_000, 30_000, 100_000))  # radix, 16 bits
        assert_stable(rng.integers(0, 10**6, 100_000))  # composite path
        assert_stable(rng.integers(0, 2**62, 100_000) * 2)  # wide keys
        assert_stable(rng.permutation(100_000).astype(np.int32))  # distinct


class TestModeSizesTouched:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_unique_count(self, seed):
        t = COOTensor.random((40, 7, 300), 500, rng=seed)
        for m in range(t.nmodes):
            assert t.mode_sizes_touched(m) == len(np.unique(t.indices[:, m]))

    def test_empty_and_single(self):
        assert COOTensor.empty((4, 5)).mode_sizes_touched(1) == 0
        one = COOTensor((4, 5), np.array([[2, 3]]), np.array([1.0]))
        assert one.mode_sizes_touched(0) == one.mode_sizes_touched(1) == 1
