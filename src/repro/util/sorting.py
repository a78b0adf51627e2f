"""One stable argsort for the whole suite.

Every pre-processing step that orders tensor entries (COO sorts and
coalescing, scatter and fiber plans, owner partitions, HiCOO's Morton
order, the Tew and contraction merges) needs the *stable* permutation:
equal keys keep their storage order, so sums and tie-breaks are
bit-identical run to run.  ``np.argsort(kind="stable")`` is a timsort;
NumPy's default argsort is a SIMD sort several times faster on int64
keys, but it does not keep ties in order.  :func:`stable_argsort` gets
the stable permutation from the fast sort:

* distinct keys have exactly one sorted permutation, so any sort
  returns it;
* integer keys spanning fewer than 2**16 values are offset into 8 or 16
  bits, where NumPy's stable sort is a radix sort;
* wider tied integer keys are made distinct by their position,
  ``(k - min) * n + i``, whenever that fits in an int64 — the composite
  sorts like ``(k, i)``, which is the stable order;
* only keys too wide for that, or floats with ties or NaNs, fall back
  to the timsort.
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for a 1-D array, bit for bit,
    through a radix or SIMD sort wherever that is exact."""
    keys = np.asarray(keys)
    n = keys.shape[0]
    if n < 2:
        return np.arange(n, dtype=np.intp)
    if np.issubdtype(keys.dtype, np.integer):
        lo, hi = int(keys.min()), int(keys.max())
        span = hi - lo
        if span < 1 << 16:
            narrow = _offsets(keys, lo).astype(np.min_scalar_type(span))
            return np.argsort(narrow, kind="stable")
        if span * n + (n - 1) <= _INT64_MAX:
            comp = _offsets(keys, lo).view(np.int64) * np.int64(n)
            comp += np.arange(n, dtype=np.int64)
            return np.argsort(comp)
    perm = np.argsort(keys)
    s = keys[perm]
    if not (s[1:] == s[:-1]).any() and not (
        np.issubdtype(keys.dtype, np.inexact) and np.isnan(s[-1])
    ):
        return perm
    return np.argsort(keys, kind="stable")


def _offsets(keys: np.ndarray, lo: int) -> np.ndarray:
    """``keys - lo`` as uint64.  Taken modulo 2**64, so uint64 keys at or
    above 2**63 and negative keys both land in ``[0, max - lo]``."""
    return keys.astype(np.uint64) - np.uint64(lo % (1 << 64))
