"""Shared fixtures: deterministic random tensors, a fresh metrics registry."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.obs import MetricsRegistry, set_metrics
from repro.sptensor import COOTensor, HiCOOTensor


@pytest.fixture
def registry():
    """A fresh process-global metrics registry for one test."""
    mine = MetricsRegistry()
    prev = set_metrics(mine)
    try:
        yield mine
    finally:
        set_metrics(prev)


@pytest.fixture
def rng():
    return np.random.default_rng(20200222)


@pytest.fixture
def coo3(rng):
    """A modest third-order tensor with ragged dimensions."""
    return COOTensor.random((23, 17, 12), nnz=400, rng=rng)


@pytest.fixture
def coo4(rng):
    """A fourth-order tensor (the suite supports arbitrary orders)."""
    return COOTensor.random((11, 9, 8, 7), nnz=600, rng=rng)


@pytest.fixture
def hicoo3(coo3):
    return HiCOOTensor.from_coo(coo3, block_size=8)


@pytest.fixture
def hicoo4(coo4):
    return HiCOOTensor.from_coo(coo4, block_size=4)


@pytest.fixture
def dense3(coo3):
    return coo3.to_dense()


@pytest.fixture
def dense4(coo4):
    return coo4.to_dense()


def random_mats(shape, r, seed=0, dtype=np.float64):
    """One (I_m, r) factor matrix per mode."""
    gen = np.random.default_rng(seed)
    return [gen.random((s, r)).astype(dtype) for s in shape]


@pytest.fixture
def mats3(coo3):
    return random_mats(coo3.shape, 5, seed=1)


@pytest.fixture
def mats4(coo4):
    return random_mats(coo4.shape, 4, seed=2)


def under_schedule(monkeypatch, backend, schedule):
    """``backend`` with every ``parallel_for`` run under ``schedule``.

    Kernel loops take the backend's static default; this drives the same
    loops through its dynamic and guided decompositions as well.
    ``None`` (the sequential default) is returned unchanged.
    """
    if backend is not None:
        monkeypatch.setattr(
            backend, "parallel_for",
            functools.partial(backend.parallel_for, schedule=schedule),
        )
    return backend
