"""Backend/schedule/method equivalence for the scatter-add kernels.

Every combination of backend (sequential, OpenMP, race-check), update
method (atomic, sort, owner) and Ttv/Ttm schedule (static, dynamic,
guided) must produce the same Mttkrp/Ttv/Ttm results — including the
empty-tensor and single-block edge cases — and every Mttkrp method must
be *bit-identical* to the sequential kernel.
"""

import numpy as np
import pytest

from repro.kernels import (
    coo_mttkrp,
    coo_ttm,
    coo_ttv,
    hicoo_mttkrp,
    hicoo_ttm,
    hicoo_ttv,
)
from repro.parallel import (
    ChaosBackend,
    OpenMPBackend,
    RaceCheckBackend,
    owner_partition,
)
from repro.sptensor import COOTensor, HiCOOTensor

SCHEDULES = ["static", "dynamic", "guided"]
METHODS = ["atomic", "sort", "owner"]


@pytest.fixture(scope="module")
def omp4():
    be = OpenMPBackend(nthreads=4, default_chunk=256)
    yield be
    be.shutdown()


@pytest.fixture(scope="module")
def racecheck():
    # Same decomposition as omp4, executed under write-footprint checking:
    # every combination below must hold its declared output contract.
    return RaceCheckBackend(nthreads=4, default_chunk=256)


@pytest.fixture(scope="module")
def chaos():
    be = ChaosBackend(
        OpenMPBackend(nthreads=4, default_chunk=256), seed=42, churn=0.25
    )
    yield be
    be.shutdown()


@pytest.fixture(scope="module")
def tensor():
    return COOTensor.random((120, 90, 40), 6000, rng=7).astype(np.float64)


@pytest.fixture(scope="module")
def hicoo(tensor):
    return HiCOOTensor.from_coo(tensor, 16)


@pytest.fixture(scope="module")
def mats(tensor):
    rng = np.random.default_rng(11)
    return [rng.random((s, 6)) for s in tensor.shape]


class TestMttkrpEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_coo_all_combinations(
        self, tensor, mats, omp4, racecheck, method, schedule, mode
    ):
        # Mttkrp threads own output-row ranges; the schedule applies to
        # the same mode's Ttv, which keeps its scheduled fiber chunks.
        ref = coo_mttkrp(tensor, mats, mode, method=method)
        ref_v = coo_ttv(tensor, mats[mode][:, 0], mode)
        for backend in (None, omp4, racecheck):
            got = coo_mttkrp(tensor, mats, mode, backend=backend, method=method)
            assert np.array_equal(got, ref)
            got_v = coo_ttv(
                tensor, mats[mode][:, 0], mode, backend=backend, schedule=schedule
            )
            assert np.array_equal(got_v.values, ref_v.values)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_hicoo_all_combinations(
        self, hicoo, mats, omp4, racecheck, method, schedule, mode
    ):
        ref = hicoo_mttkrp(hicoo, mats, mode, method=method)
        ref_v = hicoo_ttv(hicoo, mats[mode][:, 0], mode)
        for backend in (None, omp4, racecheck):
            got = hicoo_mttkrp(hicoo, mats, mode, backend=backend, method=method)
            assert np.array_equal(got, ref)
            got_v = hicoo_ttv(
                hicoo, mats[mode][:, 0], mode, backend=backend, schedule=schedule
            )
            assert np.array_equal(got_v.values, ref_v.values)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_owner_bit_identical_coo(self, tensor, mats, omp4, mode):
        ref = coo_mttkrp(tensor, mats, mode)  # sequential atomic
        assert np.array_equal(ref, coo_mttkrp(tensor, mats, mode, method="owner"))
        assert np.array_equal(
            ref, coo_mttkrp(tensor, mats, mode, backend=omp4, method="owner")
        )

    def test_owner_bit_identical_hicoo(self, hicoo, mats, omp4):
        ref = hicoo_mttkrp(hicoo, mats, 0)
        assert np.array_equal(
            ref, hicoo_mttkrp(hicoo, mats, 0, backend=omp4, method="owner")
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_tensor(self, omp4, method):
        t = COOTensor.empty((4, 5, 6))
        mats = [np.ones((s, 2)) for s in t.shape]
        out = coo_mttkrp(t, mats, 0, backend=omp4, method=method)
        assert out.shape == (4, 2) and out.sum() == 0
        h = HiCOOTensor.from_coo(t, 4)
        hout = hicoo_mttkrp(h, mats, 1, backend=omp4, method=method)
        assert hout.shape == (5, 2) and hout.sum() == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_single_block_hicoo(self, omp4, method):
        # All entries land in one HiCOO block, shared by the row owners.
        t = COOTensor(
            (8, 8, 8),
            np.array([[0, 1, 2], [3, 2, 1], [0, 1, 2], [7, 7, 7]]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        h = HiCOOTensor.from_coo(t, 8)
        assert h.nblocks == 1
        mats = [np.arange(8 * 3, dtype=np.float64).reshape(8, 3) for _ in range(3)]
        ref = hicoo_mttkrp(h, mats, 0)
        got = hicoo_mttkrp(h, mats, 0, backend=omp4, method=method)
        np.testing.assert_allclose(got, ref, rtol=1e-12)


class TestChaosSchedulingEquivalence:
    """Shuffled completion order + worker churn must not change results."""

    @pytest.mark.parametrize("method", METHODS)
    def test_coo_mttkrp_under_chaos(self, tensor, mats, chaos, method):
        ref = coo_mttkrp(tensor, mats, 0)
        got = coo_mttkrp(tensor, mats, 0, backend=chaos, method=method)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_hicoo_mttkrp_under_chaos(self, hicoo, mats, chaos):
        ref = hicoo_mttkrp(hicoo, mats, 0)
        got = hicoo_mttkrp(hicoo, mats, 0, backend=chaos)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_coo_ttv_under_chaos(self, tensor, chaos):
        v = np.random.default_rng(6).random(tensor.shape[1])
        ref = coo_ttv(tensor, v, 1)
        assert ref.allclose(coo_ttv(tensor, v, 1, backend=chaos), rtol=1e-12)


class TestFiberPartitionEquivalence:
    @pytest.mark.parametrize("partition", ["uniform", "balanced"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_coo_ttv_ttm(self, tensor, omp4, racecheck, partition, schedule):
        rng = np.random.default_rng(3)
        v = rng.random(tensor.shape[1])
        u = rng.random((tensor.shape[1], 5))
        ref_v = coo_ttv(tensor, v, 1)
        ref_m = coo_ttm(tensor, u, 1)
        for backend in (None, omp4, racecheck):
            got_v = coo_ttv(
                tensor, v, 1, backend=backend,
                schedule=schedule, partition=partition,
            )
            assert ref_v.allclose(got_v, rtol=1e-12)
            got_m = coo_ttm(
                tensor, u, 1, backend=backend,
                schedule=schedule, partition=partition,
            )
            np.testing.assert_allclose(got_m.values, ref_m.values, rtol=1e-12)

    @pytest.mark.parametrize("partition", ["uniform", "balanced"])
    def test_hicoo_ttv_ttm(self, tensor, hicoo, omp4, partition):
        rng = np.random.default_rng(4)
        v = rng.random(tensor.shape[2])
        u = rng.random((tensor.shape[2], 5))
        ref_v = coo_ttv(tensor, v, 2)
        got_v = hicoo_ttv(hicoo, v, 2, backend=omp4, partition=partition)
        assert got_v.to_coo().allclose(ref_v, rtol=1e-10)
        ref_m = hicoo_ttm(hicoo, u, 2)
        got_m = hicoo_ttm(hicoo, u, 2, backend=omp4, partition=partition)
        np.testing.assert_allclose(got_m.values, ref_m.values, rtol=1e-12)

    def test_unknown_partition_rejected(self, tensor):
        with pytest.raises(ValueError, match="partition"):
            coo_ttv(tensor, np.ones(tensor.shape[0]), 0, partition="magic")


class TestOwnerPartition:
    def test_disjoint_covering_rows(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 97, size=2000)
        part = owner_partition(rows, 97, 4)
        assert part.row_bounds[0] == 0 and part.row_bounds[-1] == 97
        assert (np.diff(part.row_bounds) > 0).all()
        # every entry lands in exactly one part, stable within the part
        seen = np.sort(part.order)
        np.testing.assert_array_equal(seen, np.arange(2000))
        for p, (lo, hi) in enumerate(zip(part.part_ptr[:-1], part.part_ptr[1:])):
            sel = part.order[lo:hi]
            assert (np.diff(sel) > 0).all()  # stable = increasing
            r = rows[sel]
            assert (r >= part.row_bounds[p]).all()
            assert (r < part.row_bounds[p + 1]).all()

    def test_empty(self):
        part = owner_partition(np.empty(0, dtype=np.int64), 10, 4)
        assert part.nparts == 1
        assert part.entry_ranges() == []
        assert part.order is None

    def test_grouped_rows_store_no_permutation(self):
        # Rows sorted along the output mode are already grouped by owner,
        # so the partition keeps storage order and owns no permutation.
        rows = np.sort(np.random.default_rng(3).integers(0, 50, size=600))
        part = owner_partition(rows, 50, 3)
        assert part.order is None
        assert part.nbytes == part.row_bounds.nbytes + part.part_ptr.nbytes
        for p, (lo, hi) in enumerate(part.entry_ranges()):
            assert (rows[lo:hi] >= part.row_bounds[p]).all()
            assert (rows[lo:hi] < part.row_bounds[p + 1]).all()

    def test_fewer_rows_than_owners(self):
        part = owner_partition(np.array([2, 0, 1, 2, 0, 1]), 3, 4)
        assert part.nparts == 3
        assert part.entry_ranges() == [(0, 2), (2, 4), (4, 6)]
        assert part.order is not None
        assert part.nbytes == (
            part.row_bounds.nbytes + part.part_ptr.nbytes + part.order.nbytes
        )

class TestGuidedScheduleFloor:
    def test_guided_floors_at_default_chunk(self):
        be = OpenMPBackend(nthreads=4, default_chunk=100)
        try:
            ranges = []
            be.parallel_for(
                10_000, lambda lo, hi: ranges.append((lo, hi)), schedule="guided"
            )
            sizes = [hi - lo for lo, hi in sorted(ranges)]
            # every chunk floors at default_chunk except a possible short tail
            assert all(s >= 100 for s in sizes[:-1])
            assert sizes.count(1) <= 1  # no degenerate 1-element chunk train
        finally:
            be.shutdown()

    def test_guided_explicit_chunk_still_wins(self):
        be = OpenMPBackend(nthreads=4, default_chunk=100)
        try:
            ranges = []
            be.parallel_for(
                1000, lambda lo, hi: ranges.append((lo, hi)),
                schedule="guided", chunk=10,
            )
            sizes = [hi - lo for lo, hi in sorted(ranges)]
            # explicit chunk overrides the default floor (short tail allowed)
            assert all(s >= 10 for s in sizes[:-1])
        finally:
            be.shutdown()
