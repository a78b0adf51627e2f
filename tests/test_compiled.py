"""One lowering per kernel cell: every backend returns the sequential bits.

Each kernel cell has a single lowering that runs on every backend (see
``repro.kernels.plans``).  Mttkrp ``atomic``/``owner`` split the output
rows into one range per thread and scatter each range's entries in
storage order; ``sort`` reduces plan-cached row segments; Ttv/Ttm reduce
fibers and Tew/Ts apply one ufunc per element.  No result depends on how
the work is cut, so the matrix below asserts ``array_equal`` against
``SequentialBackend``, never ``allclose``, under real threads (2, 3 and 4),
the strict race checker, and chaos scheduling (shuffle + churn) over
one-thread and four-thread pools.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import RunnerConfig, SuiteRunner, TensorBundle
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
from repro.kernels import dense_ttv
from repro.kernels.plans import (
    cached_plan,
    fiber_lengths,
    fiber_plan,
    owner_plan,
    scatter_plan,
)
from repro.obs.registry import get_metrics
from repro.parallel import (
    ChaosBackend,
    OpenMPBackend,
    RaceCheckBackend,
    SequentialBackend,
)
from repro.roofline import DGX_1V
from repro.sptensor import COOTensor, GHiCOOTensor, HiCOOTensor
from repro.types import Format, Kernel
from tests.conftest import random_mats

RANK = 5
OPS = ("add", "sub", "mul", "div")
METHODS = ("atomic", "sort", "owner")
SEQ = SequentialBackend()


@pytest.fixture(scope="module")
def backends():
    """Every backend whose results must equal the sequential ones."""
    bes = [
        OpenMPBackend(nthreads=2, default_chunk=64),
        OpenMPBackend(nthreads=3, default_chunk=64),
        OpenMPBackend(nthreads=4, default_chunk=64),
        RaceCheckBackend(nthreads=4, default_chunk=64, strict=True),
        ChaosBackend(OpenMPBackend(nthreads=1, default_chunk=64), seed=1, churn=0.5),
        ChaosBackend(OpenMPBackend(nthreads=4, default_chunk=64), seed=2, churn=0.5),
    ]
    yield bes
    for be in bes:
        if hasattr(be, "shutdown"):
            be.shutdown()


@pytest.fixture
def omp():
    be = OpenMPBackend(nthreads=4)
    yield be
    be.shutdown()


def _tensor(dtype, sort=True):
    x = COOTensor.random((40, 30, 20), nnz=900, rng=7).astype(dtype)
    return x.sort() if sort else x


def _hicoo(x):
    return HiCOOTensor.from_coo(x, block_size=8)


def _assert_all_equal(run, backends, label):
    want = run(SEQ)
    for be in backends:
        assert np.array_equal(run(be), want), (label, be.name, be.nthreads)


# ------------------------------------------------------------------ #
# Mttkrp: every method x format x dtype x mode, sorted and unsorted
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestMttkrpEquivalence:
    @pytest.mark.parametrize("fmt", ["coo", "hicoo"])
    @pytest.mark.parametrize("method", METHODS)
    def test_matrix(self, fmt, method, dtype, backends):
        for sort in (True, False):
            x = _tensor(dtype, sort)
            mats = random_mats(x.shape, RANK, seed=3, dtype=dtype)
            fn = coo_mttkrp
            if fmt == "hicoo":
                x, fn = _hicoo(x), hicoo_mttkrp
            for mode in range(x.nmodes):
                _assert_all_equal(
                    lambda be: fn(x, mats, mode, be, method=method),
                    backends, (sort, mode),
                )

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_unsorted_modes_coo(self, mode, dtype, backends):
        # An unsorted tensor scatters an unsorted row stream in every
        # mode: owners need a stable permutation, sort a stable argsort.
        x = _tensor(dtype, sort=False)
        mats = random_mats(x.shape, RANK, seed=4, dtype=dtype)
        for method in METHODS:
            _assert_all_equal(
                lambda be: coo_mttkrp(x, mats, mode, be, method=method),
                backends, method,
            )

    def test_fewer_rows_than_threads(self, dtype, backends):
        # Mode 1 has 3 output rows and up to 4 threads: some threads own
        # no row, and HiCOO blocks span every owner.
        x = COOTensor.random((30, 3, 25), nnz=400, rng=9).astype(dtype).sort()
        mats = random_mats(x.shape, RANK, seed=5, dtype=dtype)
        for t, fn in ((x, coo_mttkrp), (_hicoo(x), hicoo_mttkrp)):
            for method in METHODS:
                _assert_all_equal(
                    lambda be: fn(t, mats, 1, be, method=method),
                    backends, (fn.__name__, method),
                )

    def test_empty_tensor(self, dtype, backends):
        x = COOTensor.empty((4, 5, 6)).astype(dtype)
        mats = random_mats(x.shape, RANK, seed=6, dtype=dtype)
        for t, fn in ((x, coo_mttkrp), (_hicoo(x), hicoo_mttkrp)):
            for method in METHODS:
                for mode in range(3):
                    _assert_all_equal(
                        lambda be: fn(t, mats, mode, be, method=method),
                        backends, (fn.__name__, method, mode),
                    )


# ------------------------------------------------------------------ #
# Ttv, Ttm, Tew and Ts on the same backends
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestFiberAndValueEquivalence:
    def test_ttv(self, dtype, backends):
        x = _tensor(dtype)
        h = _hicoo(x)
        rng = np.random.default_rng(5)
        for mode in range(x.nmodes):
            vec = rng.random(x.shape[mode]).astype(dtype)
            for fn, t in ((coo_ttv, x), (hicoo_ttv, h)):
                _assert_all_equal(
                    lambda be: fn(t, vec, mode, be).values,
                    backends, (fn.__name__, mode),
                )

    def test_ttm(self, dtype, backends):
        x = _tensor(dtype)
        h = _hicoo(x)
        rng = np.random.default_rng(6)
        for mode in range(x.nmodes):
            u = rng.random((x.shape[mode], RANK)).astype(dtype)
            for fn, t in ((coo_ttm, x), (hicoo_ttm, h)):
                _assert_all_equal(
                    lambda be: fn(t, u, mode, be).values,
                    backends, (fn.__name__, mode),
                )

    def test_tew(self, dtype, backends):
        x = _tensor(dtype)
        y = COOTensor.random(x.shape, nnz=700, rng=8).astype(dtype).sort()
        h = _hicoo(x)
        for op in OPS:
            for fn, t in ((coo_tew, x), (hicoo_tew, h)):
                _assert_all_equal(
                    lambda be: fn(t, t, op, be, assume_same_pattern=True).values,
                    backends, (fn.__name__, op),
                )
            # Differing patterns: the union/intersection merge path.
            _assert_all_equal(
                lambda be: coo_tew(x, y, op, be).values, backends, op
            )

    def test_ts(self, dtype, backends):
        x = _tensor(dtype)
        h = _hicoo(x)
        for op in OPS:
            for fn, t in ((coo_ts, x), (hicoo_ts, h)):
                _assert_all_equal(
                    lambda be: fn(t, 1.5, op, be).values,
                    backends, (fn.__name__, op),
                )


class TestSequentialBitIdentity:
    def test_compiled_owner_matches_sequential(self, omp):
        # The paper-level invariant the bench asserts: owner-computes
        # accumulates linearly in storage order, like the atomic scatter.
        x = _tensor(np.float32)
        mats = random_mats(x.shape, RANK, seed=8, dtype=np.float32)
        ref = coo_mttkrp(x, mats, 0, "sequential")
        got = coo_mttkrp(x, mats, 0, omp, method="owner")
        assert np.array_equal(got, ref)


# ------------------------------------------------------------------ #
# Arguments are checked before any work runs
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

    # The fiber loop always runs the backend's static schedule over
    # fiber counts: a per-call schedule or partition is refused, never
    # silently ignored.
    @pytest.mark.parametrize("entry", FIBER_ENTRY_POINTS)
    def test_unknown_schedule_rejected(self, entry, be):
        with pytest.raises(TypeError, match="schedule"):
            ENTRY_POINTS[entry](be, schedule="dynamic")

    @pytest.mark.parametrize("entry", FIBER_ENTRY_POINTS)
    def test_unknown_partition_rejected(self, entry, be):
        with pytest.raises(TypeError, match="partition"):
            ENTRY_POINTS[entry](be, partition="balanced")

    @pytest.mark.parametrize("entry", ["coo_mttkrp", "hicoo_mttkrp"])
    def test_unknown_method_rejected(self, entry, be):
        with pytest.raises(ValueError, match="method"):
            ENTRY_POINTS[entry](be, method="bogus")


# ------------------------------------------------------------------ #
# Contract backends still verify the kernels
# ------------------------------------------------------------------ #
class TestContractBackends:
    def test_racecheck_passes_under_compiled_request(self):
        # Each owner range writes only its own rows: the race checker
        # replays the ranges and records one clean owner region.
        rc = RaceCheckBackend(nthreads=4, default_chunk=64)
        x = _tensor(np.float64)
        mats = random_mats(x.shape, RANK, seed=9)
        got = coo_mttkrp(x, mats, 0, rc, method="atomic")
        want = coo_mttkrp(x, mats, 0, "sequential")
        assert np.array_equal(got, want)
        assert [r.access for r in rc.history] == ["owner"]
        assert rc.history[0].nchunks == 4 and rc.history[0].conflicts == []

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
        part = owner_plan(x, x.index_column(0), x.shape[0], 0, 4)
        assert part.order is None and part.nparts == 4

    def test_plan_nbytes_counts_owned_arrays(self):
        x = COOTensor.random((20, 20, 20), nnz=300, rng=13)
        rows = x.index_column(1)
        plan = scatter_plan(x, rows, tag=1)
        assert plan.order is not None
        assert plan.nbytes == plan.order.nbytes + plan.starts.nbytes + plan.urows.nbytes
        part = owner_plan(x, rows, x.shape[1], 1, 3)
        assert part.order is not None
        assert part.nbytes == (
            part.order.nbytes + part.row_bounds.nbytes + part.part_ptr.nbytes
        )
        assert x.cache_nbytes == rows.nbytes + plan.nbytes + part.nbytes

    def test_owner_partitions_cached_per_mode_and_width(self, omp):
        x = _tensor(np.float64)
        mats = random_mats(x.shape, RANK, seed=15)
        coo_mttkrp(x, mats, 1, "sequential")
        assert x._plan_cache == {}  # one thread owns every row: no partition
        coo_mttkrp(x, mats, 1, omp)
        coo_mttkrp(x, mats, 1, omp, method="owner")
        assert list(x._plan_cache) == [("owner", 1, 4)]

    def test_sort_drops_owner_partitions(self, omp):
        x = _tensor(np.float64, sort=False)
        mats = random_mats(x.shape, RANK, seed=16)
        want = coo_mttkrp(x, mats, 2, omp)
        assert ("owner", 2, 4) in x._plan_cache
        x.sort()
        assert x._plan_cache == {}
        got = coo_mttkrp(x, mats, 2, omp)
        assert np.array_equal(got, coo_mttkrp(x, mats, 2, "sequential"))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_bundle_nbytes_counts_owner_partitions(self):
        bundle = TensorBundle.prepare("t", _tensor(np.float32), RunnerConfig())
        mats = bundle.matrices
        coo_mttkrp(bundle.coo, mats, 1, "sequential")  # caches index columns
        before = bundle.nbytes
        be = OpenMPBackend(nthreads=2)
        try:
            coo_mttkrp(bundle.coo, mats, 1, be)
        finally:
            be.shutdown()
        part = bundle.coo._plan_cache[("owner", 1, 2)]
        assert bundle.nbytes == before + part.nbytes > before


class TestFiberPlans:
    @pytest.mark.parametrize("fmt", ["coo", "hicoo"])
    def test_second_ttv_ttm_call_builds_no_plan(self, fmt):
        metrics = get_metrics()
        x = _tensor(np.float64)
        t = x if fmt == "coo" else _hicoo(x)
        ttv, ttm = (coo_ttv, coo_ttm) if fmt == "coo" else (hicoo_ttv, hicoo_ttm)
        v, u = np.ones(x.shape[1]), np.ones((x.shape[1], RANK))

        def builds() -> float:
            return metrics.counter_value("plan.builds", what="fibers")

        before = builds()
        first = ttv(t, v, 1, "sequential")
        assert builds() == before + 1
        second = ttv(t, v, 1, "sequential")
        ttm(t, u, 1, "sequential")
        assert builds() == before + 1
        assert np.array_equal(first.values, second.values)
        assert list(t._plan_cache) == [("fibers", 1)]

    def test_sort_drops_fiber_plans(self):
        x = _tensor(np.float64)
        v = np.random.default_rng(18).random(x.shape[1])
        want = dense_ttv(x.to_dense(), v, 1)
        coo_ttv(x, v, 1, "sequential")
        assert ("fibers", 1) in x._plan_cache
        x.sort((2, 0, 1))
        assert x._plan_cache == {}
        got = coo_ttv(x, v, 1, "sequential")
        np.testing.assert_allclose(got.to_dense(), want, rtol=1e-12)
        assert ("fibers", 1) in x._plan_cache

    def test_lengths_in_coo_fiber_order_on_every_format(self):
        # The GPU launch models group fibers into thread blocks in COO
        # order on both formats.
        x = _tensor(np.float32)
        h = _hicoo(x)
        g = GHiCOOTensor.from_coo(x, 8, (0, 2))
        for mode in range(x.nmodes):
            want = np.diff(fiber_plan(x, mode).fibers.fptr)
            assert np.array_equal(fiber_lengths(x, mode), want)
            assert np.array_equal(fiber_lengths(h, mode), want)
        assert np.array_equal(fiber_lengths(g, 1), np.diff(fiber_plan(x, 1).fibers.fptr))

    def test_models_and_features_cache_only_lengths(self):
        bundle = TensorBundle.prepare("t", _tensor(np.float32), RunnerConfig())
        lengths = [("lengths", m) for m in range(3)]
        assert list(bundle.coo._plan_cache) == lengths  # the OI features
        with_lengths = bundle.nbytes
        coo_bytes = sum(a.nbytes for a in bundle.coo._plan_cache.values())
        bundle.coo._plan_cache.clear()
        assert with_lengths == bundle.nbytes + coo_bytes
        h = bundle.hicoo
        runner = SuiteRunner(DGX_1V, RunnerConfig(measure_host=False))
        runner.run_kernel(bundle.shapes_only(), Kernel.TTV, Format.HICOO)  # launch model
        assert list(h._plan_cache) == lengths

    def test_hicoo_launch_models_leave_no_global_rows(self):
        # A cached bundle lives for a whole sweep or daemon, so the
        # launch models must not leave the expanded per-mode coordinates
        # on the HiCOO tensor.
        bundle = TensorBundle.prepare("t", _tensor(np.float32), RunnerConfig())
        runner = SuiteRunner(DGX_1V, RunnerConfig(measure_host=False))
        for kernel in Kernel:
            runner.run_kernel(bundle, kernel, Format.HICOO)
        assert bundle.hicoo._global_rows == {}
        for mode in range(bundle.coo.nmodes):
            got, want = fiber_lengths(bundle.hicoo, mode), fiber_lengths(bundle.coo, mode)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_bundle_nbytes_counts_fiber_plan_arrays(self):
        bundle = TensorBundle.prepare("t", _tensor(np.float32), RunnerConfig())
        # A HiCOO plan holds a gHiCOO copy; its bytes are the copy's real
        # arrays, not GHiCOOTensor.nbytes (the paper's storage model).
        h = bundle.hicoo
        h.to_coo()  # caches the global rows the plan build reads
        before = bundle.nbytes
        plan = fiber_plan(h, 1)
        g = plan.ghicoo
        arrays = (*plan.fibers, plan.bptr, g.bptr, g.binds, g.einds, g.cinds, g.values)
        assert bundle.nbytes == before + sum(a.nbytes for a in arrays)
        before = bundle.nbytes
        plan = fiber_plan(bundle.coo, 1)
        assert bundle.nbytes == before + sum(a.nbytes for a in (plan.perm, *plan.fibers))


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
