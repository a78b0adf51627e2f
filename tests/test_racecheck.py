"""The race-check harness: contracts, footprint checking, mutation tests.

Three layers of coverage:

* the output-access contract registry (every shipped parallel kernel
  declares its discipline, and the declarations resolve correctly);
* :class:`RaceCheckBackend` mechanics — mutation self-tests where
  deliberately racy decompositions MUST be flagged (the checker is only
  trustworthy if it fails on purpose-built bugs), plus the non-strict
  survey mode;
* the full kernel x format x method matrix executed under the checker:
  every shipped combination must produce reference results with zero
  contract violations.
"""

import numpy as np
import pytest

from repro.kernels import (
    Access,
    coo_mttkrp,
    coo_tew,
    coo_ts,
    coo_ttm,
    coo_ttv,
    hicoo_mttkrp,
    hicoo_tew,
    hicoo_ts,
    hicoo_ttm,
    hicoo_ttv,
    output_contract,
    registered_contracts,
)
from repro.parallel import (
    OpenMPBackend,
    RaceCheckBackend,
    RaceViolation,
    get_backend,
)
from repro.sptensor import COOTensor, HiCOOTensor


@pytest.fixture
def rc():
    return RaceCheckBackend(nthreads=4, default_chunk=64)


@pytest.fixture(scope="module")
def tensor():
    return COOTensor.random((60, 50, 40), 3000, rng=13).astype(np.float64)


@pytest.fixture(scope="module")
def hicoo(tensor):
    return HiCOOTensor.from_coo(tensor, 8)


@pytest.fixture(scope="module")
def mats(tensor):
    rng = np.random.default_rng(17)
    return [rng.random((s, 5)) for s in tensor.shape]


class TestContractRegistry:
    def test_every_parallel_kernel_declares(self):
        contracts = registered_contracts()
        for kernel in (
            "coo_mttkrp", "hicoo_mttkrp",
            "coo_ttv", "hicoo_ttv", "ghicoo_ttv",
            "coo_ttm", "hicoo_ttm", "ghicoo_ttm",
            "coo_tew", "hicoo_tew", "coo_ts", "hicoo_ts",
        ):
            assert kernel in contracts, f"{kernel} has no output contract"

    def test_mttkrp_per_method_resolution(self):
        c = output_contract(coo_mttkrp)
        assert c.methods == ("atomic", "owner", "sort")
        assert c.resolve("atomic") is Access.OWNER
        assert c.resolve("sort") is Access.DISJOINT
        assert c.resolve("owner") is Access.OWNER
        with pytest.raises(ValueError, match="pass method="):
            c.resolve()
        with pytest.raises(ValueError, match="no contract for method"):
            c.resolve("magic")

    def test_single_strategy_kernels_resolve_without_method(self):
        for fn in (coo_ttv, coo_ttm, coo_tew, coo_ts):
            c = output_contract(fn)
            assert c.methods is None
            assert c.resolve() is Access.DISJOINT

    def test_lookup_by_name_matches_function(self):
        assert output_contract("hicoo_mttkrp") == output_contract(hicoo_mttkrp)
        with pytest.raises(KeyError, match="no output contract"):
            output_contract("nonexistent_kernel")

    def test_registered_backend(self):
        assert isinstance(get_backend("racecheck"), RaceCheckBackend)


def racy_scatter_mttkrp(out, rows, contrib, backend, access):
    """A deliberately racy Mttkrp-style scatter: chunks of the nnz stream
    scatter-add straight into the shared output while (falsely) declaring
    ``access``.  Under a real threaded backend this is a write-write race
    whenever two chunks hit the same output row."""

    def body(lo, hi):
        np.add.at(out, rows[lo:hi], contrib[lo:hi])

    with backend.check_output(out, access):
        backend.parallel_for(len(rows), body, schedule="dynamic", chunk=32)


class TestMutationSelfTest:
    """The checker must flag decompositions built to be racy."""

    def _collision_stream(self, n=400, nrows=8, r=3, seed=0):
        # Few output rows, many updates: chunk overlap is certain.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, nrows, size=n)
        contrib = rng.random((n, r)) + 0.5  # bounded away from 0
        return rows, contrib, np.zeros((nrows, r))

    def test_racy_kernel_flagged_under_owner_claim(self, rc):
        rows, contrib, out = self._collision_stream()
        with pytest.raises(RaceViolation, match="owner contract violated"):
            racy_scatter_mttkrp(out, rows, contrib, rc, Access.OWNER)

    def test_racy_kernel_flagged_under_disjoint_claim(self, rc):
        rows, contrib, out = self._collision_stream(seed=1)
        with pytest.raises(RaceViolation, match="disjoint contract violated"):
            racy_scatter_mttkrp(out, rows, contrib, rc, "disjoint")

    def test_non_strict_records_without_raising(self):
        rc = RaceCheckBackend(nthreads=4, default_chunk=64, strict=False)
        rows, contrib, out = self._collision_stream(seed=3)
        racy_scatter_mttkrp(out, rows, contrib, rc, Access.OWNER)  # survey mode
        report = rc.history[-1]
        assert report.conflicts, "violation must still be recorded"
        assert report.overlaps > 0

    def test_disjoint_decomposition_passes(self, rc):
        out = np.zeros(100)

        def body(lo, hi):
            out[lo:hi] = np.arange(lo, hi, dtype=float) + 1.0

        with rc.check_output(out, "disjoint"):
            rc.parallel_for(100, body, schedule="dynamic", chunk=16)
        report = rc.history[-1]
        assert report.writes == 100 and report.overlaps == 0

    def test_untouched_nan_is_not_a_write(self, rc):
        # np.empty outputs may hold NaN garbage, which is unequal to
        # itself: only elements a chunk actually wrote count as writes.
        out = np.full(100, np.nan)

        def body(lo, hi):
            out[lo:hi] = 1.0

        with rc.check_output(out, "disjoint"):
            rc.parallel_for(100, body, schedule="dynamic", chunk=16)
        report = rc.history[-1]
        assert report.writes == 100 and report.overlaps == 0

    def test_violation_message_names_coordinates(self, rc):
        rows = np.zeros(64, dtype=np.int64)  # every update hits row 0
        contrib = np.ones((64, 2))
        out = np.zeros((4, 2))
        with pytest.raises(RaceViolation) as exc:
            racy_scatter_mttkrp(out, rows, contrib, rc, "owner")
        msg = str(exc.value)
        assert "chunks" in msg and "(0," in msg  # witness coordinates

    def test_unknown_access_kind_rejected(self, rc):
        with pytest.raises(ValueError, match="unknown output-access"):
            with rc.check_output(np.zeros(4), "fuzzy"):
                pass


class TestRaceCheckMechanics:
    def test_plan_matches_openmp(self):
        rc = RaceCheckBackend(nthreads=4, default_chunk=128)
        omp = OpenMPBackend(nthreads=4, default_chunk=128)
        for sched in ("static", "dynamic", "guided"):
            for chunk in (None, 17):
                assert rc.plan(1000, sched, chunk) == omp.plan(1000, sched, chunk)
        omp.shutdown()

    def test_chunk_zero_rejected(self, rc):
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            rc.parallel_for(100, lambda lo, hi: None, chunk=0)

    def test_no_declaration_executes_plainly(self, rc):
        out = np.zeros(50)
        rc.parallel_for(50, lambda lo, hi: out.__setitem__(slice(lo, hi), 1.0))
        assert out.sum() == 50
        assert rc.history == []

    def test_region_state_is_per_loop(self, rc):
        # One check_output scope may enclose several loops; footprints must
        # not leak between them (chunk 0 of loop 2 is not chunk 0 of loop 1).
        out = np.zeros(64)

        def body(lo, hi):
            out[lo:hi] += 1.0

        with rc.check_output(out, "disjoint"):
            rc.parallel_for(64, body, schedule="dynamic", chunk=16)
            rc.parallel_for(64, body, schedule="dynamic", chunk=16)
        assert len(rc.history) == 2
        for report in rc.history[-2:]:
            assert report.nchunks == 4 and report.writes == 64

    def test_clear_history(self, rc):
        out = np.zeros(8)
        with rc.check_output(out, "disjoint"):
            rc.parallel_for(8, lambda lo, hi: out.__setitem__(slice(lo, hi), 2.0))
        assert rc.history
        rc.clear_history()
        assert rc.history == []


class TestKernelMatrixUnderChecker:
    """Every shipped kernel x format x method combination passes the
    checker and matches the sequential reference (ISSUE acceptance)."""

    @pytest.mark.parametrize("method", ["atomic", "sort", "owner"])
    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_coo_mttkrp(self, tensor, mats, rc, method, schedule, mode):
        # Mttkrp threads own output-row ranges; the schedule applies to
        # the same mode's Ttv, which keeps its scheduled fiber chunks.
        ref = coo_mttkrp(tensor, mats, mode, method=method)
        got = coo_mttkrp(tensor, mats, mode, backend=rc, method=method)
        assert np.array_equal(got, ref)
        v = mats[mode][:, 0]
        ref_v = coo_ttv(tensor, v, mode)
        got_v = coo_ttv(tensor, v, mode, backend=rc, schedule=schedule)
        assert np.array_equal(got_v.values, ref_v.values)

    @pytest.mark.parametrize("method", ["atomic", "sort", "owner"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_hicoo_mttkrp(self, hicoo, mats, rc, method, mode):
        ref = hicoo_mttkrp(hicoo, mats, mode, method=method)
        got = hicoo_mttkrp(hicoo, mats, mode, backend=rc, method=method)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("partition", ["uniform", "balanced"])
    def test_ttv_ttm(self, tensor, hicoo, rc, partition):
        rng = np.random.default_rng(5)
        v = rng.random(tensor.shape[1])
        u = rng.random((tensor.shape[1], 4))
        ref_v = coo_ttv(tensor, v, 1)
        assert ref_v.allclose(
            coo_ttv(tensor, v, 1, backend=rc, partition=partition), rtol=1e-12
        )
        ref_m = coo_ttm(tensor, u, 1)
        got_m = coo_ttm(tensor, u, 1, backend=rc, partition=partition)
        np.testing.assert_allclose(got_m.values, ref_m.values, rtol=1e-12)
        v2 = rng.random(tensor.shape[2])
        ref_hv = hicoo_ttv(hicoo, v2, 2)
        got_hv = hicoo_ttv(hicoo, v2, 2, backend=rc, partition=partition)
        np.testing.assert_allclose(got_hv.values, ref_hv.values, rtol=1e-12)
        u2 = rng.random((tensor.shape[2], 4))
        ref_hm = hicoo_ttm(hicoo, u2, 2)
        got_hm = hicoo_ttm(hicoo, u2, 2, backend=rc, partition=partition)
        np.testing.assert_allclose(got_hm.values, ref_hm.values, rtol=1e-12)

    def test_tew_ts(self, tensor, hicoo, rc):
        other = COOTensor(
            tensor.shape, tensor.indices, tensor.values * 2.0, copy=True,
            check=False,
        )
        ref = coo_tew(tensor, other, "add", assume_same_pattern=True)
        got = coo_tew(tensor, other, "add", backend=rc, assume_same_pattern=True)
        np.testing.assert_allclose(got.values, ref.values, rtol=1e-12)
        ref_s = coo_ts(tensor, 2.5, "mul")
        got_s = coo_ts(tensor, 2.5, "mul", backend=rc)
        np.testing.assert_allclose(got_s.values, ref_s.values, rtol=1e-12)
        href = hicoo_ts(hicoo, 0.5, "mul")
        hgot = hicoo_ts(hicoo, 0.5, "mul", backend=rc)
        np.testing.assert_allclose(hgot.values, href.values, rtol=1e-12)
        hother = hicoo_ts(hicoo, 3.0, "mul")
        href_t = hicoo_tew(hicoo, hother, "add")
        hgot_t = hicoo_tew(hicoo, hother, "add", backend=rc)
        np.testing.assert_allclose(hgot_t.values, href_t.values, rtol=1e-12)

    def test_matrix_regions_all_clean(self, tensor, hicoo, mats, rc):
        # A sweep across methods leaves a non-trivial history with zero
        # conflicts anywhere.
        for method in ("atomic", "owner"):
            coo_mttkrp(tensor, mats, 0, backend=rc, method=method)
            hicoo_mttkrp(hicoo, mats, 1, backend=rc, method=method)
        coo_ttv(tensor, np.ones(tensor.shape[0]), 0, backend=rc)
        assert len(rc.history) >= 5
        assert all(r.conflicts == [] for r in rc.history)
