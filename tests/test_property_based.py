"""Property-based tests (hypothesis) on format round-trips and kernels.

These are the invariants the whole suite rests on:

* every format round-trips through COO losslessly;
* every kernel agrees with the dense reference on arbitrary tensors;
* structural invariants (Morton grouping, bptr partitioning, fiber
  pointers) hold for arbitrary shapes/patterns, including adversarial
  ones hypothesis discovers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    coo_mttkrp,
    coo_tew,
    coo_ts,
    coo_ttm,
    coo_ttv,
    dense_mttkrp,
    dense_ttm,
    dense_ttv,
    hicoo_mttkrp,
    hicoo_tew,
    hicoo_ts,
    hicoo_ttm,
    hicoo_ttv,
)
from repro.kernels.plans import fiber_lengths, fiber_plan
from repro.sptensor import (
    COOTensor,
    CSFTensor,
    GHiCOOTensor,
    HiCOOTensor,
    SemiCOOTensor,
)


@st.composite
def sparse_tensors(draw, max_order=4, max_dim=24, max_nnz=60):
    """Random COO tensors of arbitrary small shape and pattern."""
    order = draw(st.integers(2, max_order))
    shape = tuple(draw(st.integers(1, max_dim)) for _ in range(order))
    capacity = int(np.prod(shape))
    nnz = draw(st.integers(0, min(max_nnz, capacity)))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if nnz == 0:
        return COOTensor.empty(shape, dtype=np.float64)
    lin = rng.choice(capacity, size=nnz, replace=False)
    coords = np.stack(np.unravel_index(lin, shape), axis=1)
    # values bounded away from zero so drop_zeros never fires
    vals = rng.uniform(0.5, 2.0, size=nnz) * rng.choice([-1.0, 1.0], size=nnz)
    return COOTensor(shape, coords, vals.astype(np.float64), check=False)


block_sizes = st.sampled_from([1, 2, 4, 8, 16, 128])


class TestFormatRoundtrips:
    @given(sparse_tensors(), block_sizes)
    @settings(max_examples=60, deadline=None)
    def test_hicoo_roundtrip(self, t, b):
        h = HiCOOTensor.from_coo(t, b)
        assert h.nnz == t.nnz
        assert h.to_coo().allclose(t)

    @given(sparse_tensors(), block_sizes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_ghicoo_roundtrip(self, t, b, data):
        comp = data.draw(
            st.lists(
                st.integers(0, t.nmodes - 1), min_size=1, max_size=t.nmodes,
                unique=True,
            )
        )
        g = GHiCOOTensor.from_coo(t, b, comp)
        assert g.to_coo().allclose(t)

    @given(sparse_tensors(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_csf_roundtrip_any_order(self, t, data):
        order = data.draw(st.permutations(range(t.nmodes)))
        c = CSFTensor.from_coo(t, order)
        assert c.to_coo().allclose(t)

    @given(sparse_tensors(max_order=3, max_dim=12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_scoo_roundtrip(self, t, data):
        dm = data.draw(st.integers(0, t.nmodes - 1))
        sc = SemiCOOTensor.from_coo(t, (dm,))
        assert sc.to_coo().allclose(t)

    @given(sparse_tensors())
    @settings(max_examples=40, deadline=None)
    def test_dense_roundtrip(self, t):
        assert COOTensor.from_dense(t.to_dense()).allclose(t)

    @given(sparse_tensors(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sort_preserves_values(self, t, data):
        order = tuple(data.draw(st.permutations(range(t.nmodes))))
        d = t.to_dense()
        t.sort(order)
        np.testing.assert_allclose(t.to_dense(), d)
        lin = t.linearize(order)
        assert (np.diff(lin) >= 0).all()


class TestStructuralInvariants:
    @given(sparse_tensors(), block_sizes)
    @settings(max_examples=60, deadline=None)
    def test_hicoo_bptr_partitions(self, t, b):
        h = HiCOOTensor.from_coo(t, b)
        assert h.bptr[0] == 0 and h.bptr[-1] == h.nnz
        nnzb = h.nnz_per_block()
        assert (nnzb >= 1).all() or h.nnz == 0
        # every entry's block coordinate matches its owning block
        if h.nnz:
            bid = h.entry_block_ids()
            blocks = h.global_indices() // h.block_size
            np.testing.assert_array_equal(
                blocks, h.binds[bid].astype(np.int64)
            )

    @given(sparse_tensors())
    @settings(max_examples=40, deadline=None)
    def test_fiber_index_partitions(self, t):
        for mode in range(t.nmodes):
            plan = fiber_plan(t, mode)
            assert plan.fibers.fptr[0] == 0 and plan.fibers.fptr[-1] == t.nnz
            assert fiber_lengths(t, mode).sum() == t.nnz

    @given(sparse_tensors())
    @settings(max_examples=40, deadline=None)
    def test_coalesce_idempotent(self, t):
        c = t.coalesce()
        cc = c.coalesce()
        assert c.allclose(cc)
        assert not c.has_duplicates()


class TestKernelsAgainstDense:
    @given(sparse_tensors(max_order=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_ttv(self, t, data):
        mode = data.draw(st.integers(0, t.nmodes - 1))
        seed = data.draw(st.integers(0, 1000))
        v = np.random.default_rng(seed).uniform(-1, 1, t.shape[mode])
        got = coo_ttv(t, v, mode).to_dense()
        np.testing.assert_allclose(
            got, dense_ttv(t.to_dense(), v, mode), rtol=1e-7, atol=1e-9
        )

    @given(sparse_tensors(max_order=3, max_dim=12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_ttm(self, t, data):
        mode = data.draw(st.integers(0, t.nmodes - 1))
        r = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 1000))
        u = np.random.default_rng(seed).uniform(-1, 1, (t.shape[mode], r))
        got = coo_ttm(t, u, mode).to_dense()
        np.testing.assert_allclose(
            got, dense_ttm(t.to_dense(), u, mode), rtol=1e-7, atol=1e-9
        )

    @given(sparse_tensors(max_order=3, max_dim=10), st.data(), block_sizes)
    @settings(max_examples=40, deadline=None)
    def test_mttkrp_both_formats(self, t, data, b):
        mode = data.draw(st.integers(0, t.nmodes - 1))
        seed = data.draw(st.integers(0, 1000))
        rng = np.random.default_rng(seed)
        mats = [rng.uniform(-1, 1, (s, 3)) for s in t.shape]
        want = dense_mttkrp(t.to_dense(), mats, mode)
        np.testing.assert_allclose(
            coo_mttkrp(t, mats, mode), want, rtol=1e-7, atol=1e-9
        )
        h = HiCOOTensor.from_coo(t, b)
        np.testing.assert_allclose(
            hicoo_mttkrp(h, mats, mode), want, rtol=1e-7, atol=1e-9
        )

    @given(sparse_tensors(max_order=3, max_dim=10), block_sizes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_hicoo_ttv_matches_coo(self, t, b, data):
        if t.nmodes < 2:
            return
        mode = data.draw(st.integers(0, t.nmodes - 1))
        v = np.random.default_rng(7).uniform(-1, 1, t.shape[mode])
        h = HiCOOTensor.from_coo(t, b)
        got = hicoo_ttv(h, v, mode).to_coo()
        want = coo_ttv(t, v, mode)
        # compare as tensors (block order differs from sort order)
        np.testing.assert_allclose(
            got.to_dense(), want.to_dense(), rtol=1e-7, atol=1e-9
        )

    @given(sparse_tensors(max_order=3, max_dim=10), st.data())
    @settings(max_examples=30, deadline=None)
    def test_tew_add_commutes(self, t, data):
        seed = data.draw(st.integers(0, 1000))
        other = COOTensor.random(t.shape, nnz=min(t.nnz + 1, 30), rng=seed).astype(
            np.float64
        )
        a = coo_tew(t, other, "add")
        b = coo_tew(other, t, "add")
        assert a.allclose(b, rtol=1e-10)

    @given(sparse_tensors(), st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_ts_mul_div_inverse(self, t, s):
        forward = coo_ts(t, s, "mul")
        back = coo_ts(forward, s, "div")
        np.testing.assert_allclose(back.values, t.values, rtol=1e-9)

#: Every scatter method the Mttkrp kernels accept.
SCATTER_METHODS = ["atomic", "sort", "owner"]

BACKENDS = ["sequential", "openmp", "racecheck"]


class TestCrossFormatMatrix:
    """COO vs HiCOO vs dense, across scatter methods and backends.

    The executor assumes a case's result is a pure function of its
    fingerprint — true only if every (kernel, format, method, backend)
    combination computes the same mathematical answer.  This matrix pins
    that equivalence; the racecheck column additionally proves each
    combination writes without data races.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", SCATTER_METHODS)
    @given(t=sparse_tensors(max_order=3, max_dim=10, max_nnz=40), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_mttkrp(self, t, data, method, backend):
        mode = data.draw(st.integers(0, t.nmodes - 1))
        b = data.draw(block_sizes)
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        mats = [rng.uniform(-1, 1, (s, 3)) for s in t.shape]
        want = dense_mttkrp(t.to_dense(), mats, mode)
        got_coo = coo_mttkrp(t, mats, mode, backend=backend, method=method)
        np.testing.assert_allclose(got_coo, want, rtol=1e-7, atol=1e-9)
        h = HiCOOTensor.from_coo(t, b)
        got_hicoo = hicoo_mttkrp(h, mats, mode, backend=backend, method=method)
        np.testing.assert_allclose(got_hicoo, want, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(t=sparse_tensors(max_order=3, max_dim=10, max_nnz=40), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_tew(self, t, data, backend):
        b = data.draw(block_sizes)
        other = COOTensor.random(
            t.shape, nnz=min(t.nnz + 1, 30), rng=data.draw(st.integers(0, 1000))
        ).astype(np.float64)
        want = t.to_dense() + other.to_dense()
        got_coo = coo_tew(t, other, "add", backend=backend).to_dense()
        np.testing.assert_allclose(got_coo, want, rtol=1e-7, atol=1e-9)
        got_hicoo = hicoo_tew(
            HiCOOTensor.from_coo(t, b),
            HiCOOTensor.from_coo(other, b),
            "add",
            backend=backend,
        )
        np.testing.assert_allclose(
            got_hicoo.to_coo().to_dense(), want, rtol=1e-7, atol=1e-9
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        t=sparse_tensors(max_order=3, max_dim=10, max_nnz=40),
        s=st.floats(0.1, 10.0),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_ts(self, t, s, data, backend):
        b = data.draw(block_sizes)
        want = t.to_dense() * s
        got_coo = coo_ts(t, s, "mul", backend=backend).to_dense()
        np.testing.assert_allclose(got_coo, want, rtol=1e-9, atol=0)
        got_hicoo = hicoo_ts(HiCOOTensor.from_coo(t, b), s, "mul", backend=backend)
        np.testing.assert_allclose(
            got_hicoo.to_coo().to_dense(), want, rtol=1e-9, atol=0
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(t=sparse_tensors(max_order=3, max_dim=10, max_nnz=40), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_ttv(self, t, data, backend):
        mode = data.draw(st.integers(0, t.nmodes - 1))
        b = data.draw(block_sizes)
        v = np.random.default_rng(data.draw(st.integers(0, 1000))).uniform(
            -1, 1, t.shape[mode]
        )
        want = dense_ttv(t.to_dense(), v, mode)
        got_coo = coo_ttv(t, v, mode, backend=backend).to_dense()
        np.testing.assert_allclose(got_coo, want, rtol=1e-7, atol=1e-9)
        got_hicoo = hicoo_ttv(HiCOOTensor.from_coo(t, b), v, mode, backend=backend)
        np.testing.assert_allclose(
            got_hicoo.to_coo().to_dense(), want, rtol=1e-7, atol=1e-9
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(t=sparse_tensors(max_order=3, max_dim=8, max_nnz=30), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_ttm(self, t, data, backend):
        mode = data.draw(st.integers(0, t.nmodes - 1))
        b = data.draw(block_sizes)
        r = data.draw(st.integers(1, 4))
        u = np.random.default_rng(data.draw(st.integers(0, 1000))).uniform(
            -1, 1, (t.shape[mode], r)
        )
        want = dense_ttm(t.to_dense(), u, mode)
        got_coo = coo_ttm(t, u, mode, backend=backend).to_dense()
        np.testing.assert_allclose(got_coo, want, rtol=1e-7, atol=1e-9)
        got_hicoo = hicoo_ttm(HiCOOTensor.from_coo(t, b), u, mode, backend=backend)
        np.testing.assert_allclose(
            got_hicoo.to_coo().to_dense(), want, rtol=1e-7, atol=1e-9
        )


class TestKernelLinearity:
    @given(sparse_tensors())
    @settings(max_examples=30, deadline=None)
    def test_ttv_linearity(self, t):
        """Ttv(a*v + w) == a*Ttv(v) + Ttv(w) — kernel linearity."""
        if t.nmodes < 2:
            return
        rng = np.random.default_rng(1)
        v = rng.uniform(-1, 1, t.shape[-1])
        w = rng.uniform(-1, 1, t.shape[-1])
        a = 2.5
        left = coo_ttv(t, a * v + w, t.nmodes - 1).to_dense()
        right = a * coo_ttv(t, v, t.nmodes - 1).to_dense() + coo_ttv(
            t, w, t.nmodes - 1
        ).to_dense()
        np.testing.assert_allclose(left, right, rtol=1e-7, atol=1e-9)


class TestStealSchedulerEquivalence:
    """Scheduling is invisible in the results: any worker count and any
    steal order produce the same completed fingerprints and the same
    store contents as the single-worker run (case seeds derive from
    fingerprints, never from execution order)."""

    #: Fixed case pool the strategy draws subsets from (built lazily —
    #: enumerate once, reuse across examples).
    _pool = None

    @classmethod
    def case_pool(cls):
        if cls._pool is None:
            from repro.bench import RunnerConfig, enumerate_cases
            from repro.types import Format, Kernel

            cfg = RunnerConfig(
                measure_host=False,
                kernels=(Kernel.TS, Kernel.TEW, Kernel.TTV),
                formats=(Format.COO, Format.HICOO),
            )
            specs = {
                name: {
                    "kind": "random", "shape": [20, 15, 6], "nnz": 100,
                    "seed": 3 + i,
                }
                for i, name in enumerate(("a", "b"))
            }
            cls._pool = enumerate_cases(specs, cfg)
        return cls._pool

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_any_schedule_matches_single_worker_run(self, data):
        import tempfile

        from repro.bench import ExecutorConfig, RunStore, SuiteExecutor
        from repro.bench.runner import derive_case_seed

        pool = self.case_pool()
        picks = data.draw(
            st.lists(
                st.integers(0, len(pool) - 1),
                min_size=1, max_size=len(pool), unique=True,
            )
        )
        cases = [pool[i] for i in picks]
        workers = data.draw(st.integers(2, 4))
        steal_seed = derive_case_seed(
            data.draw(st.integers(0, 1000)), "property", workers
        )

        with tempfile.TemporaryDirectory(prefix="steal-prop-") as tmp:
            serial = RunStore(f"{tmp}/serial.jsonl")
            SuiteExecutor(
                cases, serial, ExecutorConfig(isolation="inline"),
                sleep=lambda s: None,
            ).run()
            pooled = RunStore(f"{tmp}/pooled.jsonl")
            report = SuiteExecutor(
                cases, pooled,
                ExecutorConfig(
                    isolation="inline", workers=workers, steal_seed=steal_seed,
                ),
                sleep=lambda s: None,
            ).run()
            serial_state, pooled_state = serial.load(), pooled.load()

        assert sorted(report.completed) == sorted(c.fingerprint for c in cases)
        assert set(pooled_state.records) == set(serial_state.records)
        for fp, line in serial_state.records.items():
            assert pooled_state.records[fp]["record"] == line["record"], fp
            assert pooled_state.records[fp]["seed"] == line["seed"], fp
