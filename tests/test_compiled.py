"""Equivalence of the two kernel lowerings, and the scatter-plan cache.

Every kernel cell has two lowerings and the backend picks one (see
``repro.kernels.plans``): plain sequential execution runs the plan path,
while threaded and chunk-checking backends run the chunked loops.
The contract is *bit-identity*: both lowerings run the same
floating-point schedule (``atomic``/``owner`` -> linear per-row
accumulation, ``sort``/fibers -> pairwise ``reduceat``, elementwise ->
one rounding per element), so the matrix below asserts ``array_equal``,
never ``allclose``.

The chunked reference is a ``ChaosBackend`` over a one-thread pool with
no shuffling, churn or faults: it is not threaded, but it always runs the
chunked loops, in chunk order.  ``owner`` is also checked under a real
multi-thread OpenMP backend, where it stays bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    coo_mttkrp,
    coo_tew,
    coo_ts,
    coo_ttm,
    coo_ttv,
    ghicoo_ttm,
    ghicoo_ttv,
    hicoo_mttkrp,
    hicoo_tew,
    hicoo_ts,
    hicoo_ttm,
    hicoo_ttv,
)
from repro.kernels import plans
from repro.kernels.plans import cached_plan, scatter_plan, uses_plans
from repro.obs.registry import get_metrics
from repro.parallel import (
    ChaosBackend,
    OpenMPBackend,
    RaceCheckBackend,
    SequentialBackend,
)
from repro.sptensor import COOTensor, GHiCOOTensor, HiCOOTensor
from tests.conftest import random_mats

RANK = 5
OPS = ("add", "sub", "mul", "div")


@pytest.fixture
def omp():
    be = OpenMPBackend(nthreads=4)
    yield be
    be.shutdown()


@pytest.fixture
def chunked():
    """Sequential chunked loops: chaos over one thread, no perturbation."""
    be = ChaosBackend(OpenMPBackend(nthreads=1), shuffle=False)
    assert not be.is_threaded and not uses_plans(be)
    yield be
    be.shutdown()


def _tensor(dtype):
    return COOTensor.random((40, 30, 20), nnz=900, rng=7).astype(dtype).sort()


def _hicoo(x):
    return HiCOOTensor.from_coo(x, block_size=8)


# ------------------------------------------------------------------ #
# Equivalence matrix: plan path vs chunked loops
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestMttkrpEquivalence:
    @pytest.mark.parametrize("fmt", ["coo", "hicoo"])
    @pytest.mark.parametrize("method", ["atomic", "sort", "owner"])
    def test_matrix(self, fmt, method, dtype, chunked, omp):
        x = _tensor(dtype)
        mats = random_mats(x.shape, RANK, seed=3, dtype=dtype)
        fn = coo_mttkrp
        if fmt == "hicoo":
            x, fn = _hicoo(x), hicoo_mttkrp
        for mode in range(x.nmodes):
            got = fn(x, mats, mode, "sequential", method=method)
            want = fn(x, mats, mode, chunked, method=method)
            assert np.array_equal(got, want), mode
            if method == "owner":
                par = fn(x, mats, mode, omp, method="owner")
                assert np.array_equal(par, got), mode

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_unsorted_modes_coo(self, mode, dtype, chunked):
        # An unsorted tensor scatters an unsorted row stream in every
        # mode: exercises the stable-argsort plan.
        x = COOTensor.random((40, 30, 20), nnz=900, rng=7).astype(dtype)
        mats = random_mats(x.shape, RANK, seed=4, dtype=dtype)
        for method in ("atomic", "sort", "owner"):
            got = coo_mttkrp(x, mats, mode, "sequential", method=method)
            want = coo_mttkrp(x, mats, mode, chunked, method=method)
            assert np.array_equal(got, want), method


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestFiberAndValueEquivalence:
    def test_ttv(self, dtype, chunked):
        x = _tensor(dtype)
        h = _hicoo(x)
        rng = np.random.default_rng(5)
        for mode in range(x.nmodes):
            vec = rng.random(x.shape[mode]).astype(dtype)
            for fn, t in ((coo_ttv, x), (hicoo_ttv, h)):
                got = fn(t, vec, mode, "sequential")
                want = fn(t, vec, mode, chunked)
                assert np.array_equal(got.values, want.values), (fn, mode)

    def test_ttm(self, dtype, chunked):
        x = _tensor(dtype)
        h = _hicoo(x)
        rng = np.random.default_rng(6)
        for mode in range(x.nmodes):
            u = rng.random((x.shape[mode], RANK)).astype(dtype)
            for fn, t in ((coo_ttm, x), (hicoo_ttm, h)):
                got = fn(t, u, mode, "sequential")
                want = fn(t, u, mode, chunked)
                assert np.array_equal(got.values, want.values), (fn, mode)

    def test_tew(self, dtype, chunked):
        x = _tensor(dtype)
        y = COOTensor.random(x.shape, nnz=700, rng=8).astype(dtype).sort()
        h = _hicoo(x)
        for op in OPS:
            for fn, t in ((coo_tew, x), (hicoo_tew, h)):
                got = fn(t, t, op, "sequential", assume_same_pattern=True)
                want = fn(t, t, op, chunked, assume_same_pattern=True)
                assert np.array_equal(got.values, want.values), (fn, op)
            # Differing patterns: the union/intersection merge path.
            got = coo_tew(x, y, op, "sequential")
            want = coo_tew(x, y, op, chunked)
            assert np.array_equal(got.values, want.values), op

    def test_ts(self, dtype, chunked):
        x = _tensor(dtype)
        h = _hicoo(x)
        for op in OPS:
            for fn, t in ((coo_ts, x), (hicoo_ts, h)):
                got = fn(t, 1.5, op, "sequential")
                want = fn(t, 1.5, op, chunked)
                assert np.array_equal(got.values, want.values), (fn, op)


class TestSequentialBitIdentity:
    def test_compiled_owner_matches_sequential(self, chunked):
        # The paper-level invariant the bench asserts: owner-computes
        # accumulates linearly in storage order, like the atomic scatter.
        x = _tensor(np.float32)
        mats = random_mats(x.shape, RANK, seed=8, dtype=np.float32)
        ref = coo_mttkrp(x, mats, 0, chunked)
        got = coo_mttkrp(x, mats, 0, "sequential", method="owner")
        assert np.array_equal(got, ref)


# ------------------------------------------------------------------ #
# Which lowering each backend picks
# ------------------------------------------------------------------ #
class TestLoweringChoice:
    def test_plain_sequential_runs_plans(self):
        one = OpenMPBackend(nthreads=1)
        try:
            assert uses_plans(SequentialBackend()) and uses_plans(one)
        finally:
            one.shutdown()

    def test_threaded_and_checking_backends_run_chunks(self, omp):
        rc = RaceCheckBackend(nthreads=2, default_chunk=64)
        ch = ChaosBackend(OpenMPBackend(nthreads=1))
        try:
            for be in (omp, rc, ch):
                assert not uses_plans(be), be.name
            assert rc.chunked_only and ch.chunked_only
        finally:
            ch.shutdown()

    def test_only_the_plan_path_fills_the_plan_cache(self, omp, chunked):
        x = _tensor(np.float64)
        mats = random_mats(x.shape, RANK, seed=10)
        for be in (omp, chunked):
            coo_mttkrp(x, mats, 1, be, method="sort")
        assert x._plan_cache == {}
        coo_mttkrp(x, mats, 1, "sequential", method="sort")
        assert len(x._plan_cache) == 1


# ------------------------------------------------------------------ #
# Arguments are checked before the lowering is chosen
# ------------------------------------------------------------------ #
def _entry_points():
    x = _tensor(np.float64)
    h = _hicoo(x)
    g = GHiCOOTensor.from_coo(x, 8, (0, 2))
    mats = random_mats(x.shape, RANK, seed=11)
    vec = np.ones(x.shape[1])
    return {
        "coo_mttkrp": lambda be, **kw: coo_mttkrp(x, mats, 1, be, **kw),
        "hicoo_mttkrp": lambda be, **kw: hicoo_mttkrp(h, mats, 1, be, **kw),
        "coo_ttv": lambda be, **kw: coo_ttv(x, vec, 1, be, **kw),
        "hicoo_ttv": lambda be, **kw: hicoo_ttv(h, vec, 1, be, **kw),
        "ghicoo_ttv": lambda be, **kw: ghicoo_ttv(g, vec, 1, be, **kw),
        "coo_ttm": lambda be, **kw: coo_ttm(x, mats[1], 1, be, **kw),
        "hicoo_ttm": lambda be, **kw: hicoo_ttm(h, mats[1], 1, be, **kw),
        "ghicoo_ttm": lambda be, **kw: ghicoo_ttm(g, mats[1], 1, be, **kw),
    }


ENTRY_POINTS = _entry_points()
FIBER_ENTRY_POINTS = [k for k in ENTRY_POINTS if "ttv" in k or "ttm" in k]


@pytest.mark.parametrize("backend", ["sequential", "openmp"])
class TestArgumentValidation:
    @pytest.fixture
    def be(self, backend, omp):
        return "sequential" if backend == "sequential" else omp

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_unknown_schedule_rejected(self, entry, be):
        with pytest.raises(ValueError, match="schedule"):
            ENTRY_POINTS[entry](be, schedule="bogus")

    @pytest.mark.parametrize("entry", FIBER_ENTRY_POINTS)
    def test_unknown_partition_rejected(self, entry, be):
        with pytest.raises(ValueError, match="partition"):
            ENTRY_POINTS[entry](be, partition="magic")

    @pytest.mark.parametrize("entry", ["coo_mttkrp", "hicoo_mttkrp"])
    def test_unknown_method_rejected(self, entry, be):
        with pytest.raises(ValueError, match="method"):
            ENTRY_POINTS[entry](be, method="bogus")


# ------------------------------------------------------------------ #
# Contract backends still verify the kernels
# ------------------------------------------------------------------ #
class TestContractBackends:
    def test_racecheck_passes_under_compiled_request(self):
        # The race checker always runs the chunked loops, so its replay
        # contracts run (and pass) on every call.
        rc = RaceCheckBackend(nthreads=4, default_chunk=64)
        x = _tensor(np.float64)
        mats = random_mats(x.shape, RANK, seed=9)
        got = coo_mttkrp(x, mats, 0, rc, method="atomic")
        want = coo_mttkrp(x, mats, 0, "sequential")
        np.testing.assert_allclose(got, want, rtol=1e-10)
        assert rc.history

    def test_chaos_passes_under_compiled_request(self):
        ch = ChaosBackend(OpenMPBackend(nthreads=4), churn=1.0)
        try:
            x = _tensor(np.float64)
            got = coo_ttv(x, np.ones(x.shape[1]), 1, ch)
            want = coo_ttv(x, np.ones(x.shape[1]), 1, "sequential")
        finally:
            ch.shutdown()
        np.testing.assert_allclose(got.values, want.values, rtol=1e-10)


# ------------------------------------------------------------------ #
# Plan cache and accounting
# ------------------------------------------------------------------ #
class TestPlansAndStats:
    def test_plan_cached_per_tensor_and_tag(self):
        x = _tensor(np.float64)
        p1 = scatter_plan(x, x.index_column(0), tag=0)
        p2 = scatter_plan(x, x.index_column(0), tag=0)
        assert p1 is p2
        p3 = scatter_plan(x, x.index_column(1), tag=1)
        assert p3 is not p1

    def test_sort_invalidates_coo_plan_cache(self):
        x = COOTensor.random((20, 20, 20), nnz=300, rng=11)
        built = []
        cached_plan(x, ("probe",), lambda: built.append(1) or object())
        x.sort()
        cached_plan(x, ("probe",), lambda: built.append(1) or object())
        assert len(built) == 2

    def test_cache_survives_on_foreign_objects(self):
        # Tensors without the _plan_cache slot degrade to build-per-call.
        class Bare:
            __slots__ = ()

        built = []
        cached_plan(Bare(), ("k",), lambda: built.append(1) or object())
        cached_plan(Bare(), ("k",), lambda: built.append(1) or object())
        assert len(built) == 2

    def test_compiled_calls_are_accounted(self):
        # Plan builds are counted in the metrics registry, once per plan.
        metrics = get_metrics()
        x = _tensor(np.float32)
        mats = random_mats(x.shape, RANK, seed=12, dtype=np.float32)
        before = metrics.counter_totals("plan.")
        coo_mttkrp(x, mats, 1, "sequential", method="sort")
        built = metrics.counter_totals("plan.")
        coo_mttkrp(x, mats, 1, "sequential", method="sort")
        coo_mttkrp(x, mats, 1, "sequential", method="atomic")
        assert metrics.counter_totals("plan.") == built
        assert built["plan.builds"] == before.get("plan.builds", 0.0) + 1
        assert built["plan.build_seconds"] > before.get("plan.build_seconds", 0.0)

    def test_presorted_stream_needs_no_permutation(self):
        x = _tensor(np.float64)
        plan = scatter_plan(x, x.index_column(0), tag=0)  # sorted: mode 0
        assert plan.order is None

    def test_plan_nbytes_counts_owned_arrays(self):
        x = COOTensor.random((20, 20, 20), nnz=300, rng=13)
        rows = x.index_column(1)
        plan = scatter_plan(x, rows, tag=1)
        assert plan.order is not None
        assert plan.nbytes == plan.order.nbytes + plan.starts.nbytes + plan.urows.nbytes
        assert x.cache_nbytes == rows.nbytes + plan.nbytes


class TestScatterRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_keep_storage_order(self, dtype, monkeypatch):
        # Several blocks, and rows that recur across block boundaries:
        # every cell must still add its summands in storage order.
        monkeypatch.setattr(plans, "_SCATTER_BLOCK", 7)
        rng = np.random.default_rng(14)
        rows = rng.integers(0, 5, size=100)
        contrib = rng.standard_normal((100, 3)).astype(dtype) * 1e3
        want = np.zeros((5, 3), dtype=dtype)
        np.add.at(want, rows, contrib)
        got = np.zeros((5, 3), dtype=dtype)
        plans.scatter_rows(got, rows, contrib)
        assert np.array_equal(got, want)
