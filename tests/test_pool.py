"""Tests for the long-lived worker pool (repro.bench.pool, repro.bench.worker).

Covers the pool's lifecycle (launch-key changes retire idle workers,
``shutdown_pool`` reaps every worker, no zombie survives a sweep), the
line-framed protocol under a case that floods stdout and stderr, and the
safety of reusing a prepared tensor bundle across cases: kernels leave
its arrays untouched, and one worker serving A, B, A returns the records
a fresh inline run does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.bench import (
    ExecutorConfig,
    RunnerConfig,
    RunStore,
    SuiteExecutor,
    SuiteRunner,
    enumerate_cases,
    execute_case,
)
from repro.bench.executor import prepare_bundle
from repro.bench.pool import (
    PooledWorker,
    WorkerCrash,
    WorkerPool,
    get_pool,
    launch_key,
    shutdown_pool,
)
from repro.bench.worker import BundleCache
from repro.roofline.platform import get_platform
from repro.types import Kernel

from test_executor import TINY_SPEC, tiny_cases


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload(case, attempt=0, **extra) -> dict:
    return dict({"case": case.to_dict(), "attempt": attempt, "faults": {}}, **extra)


def exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def zombie_children() -> list:
    """Pids of this process's children that exited but were not reaped."""
    me = str(os.getpid())
    zombies = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if ppid == me and state == "Z":
            zombies.append(int(entry))
    return zombies


def bundle_arrays(bundle) -> list:
    coo, hicoo = bundle.coo, bundle.hicoo
    arrays = [coo.indices, coo.values, hicoo.bptr, hicoo.binds, hicoo.einds, hicoo.values]
    return arrays + list(bundle.vectors) + list(bundle.matrices)


# ---------------------------------------------------------------------- #
# Bundle reuse
# ---------------------------------------------------------------------- #


class TestBundleReuse:
    def test_kernels_leave_the_bundle_byte_identical(self):
        cfg = RunnerConfig(measure_host=True, repeats=1, warmup=0)
        cases = enumerate_cases({"tiny": TINY_SPEC}, cfg, platforms=("Bluesky", "DGX-1V"))
        assert {(c.kernel, c.fmt) for c in cases} == {
            (k.value, f.value) for k in cfg.kernels for f in cfg.formats
        }
        bundle = prepare_bundle(cases[0])
        before = [(a.dtype, a.shape, a.tobytes()) for a in bundle_arrays(bundle)]
        for case in cases:
            SuiteRunner(get_platform(case.platform), case.runner_config()).run_kernel(
                bundle, case.kernel, case.fmt
            )
            after = [(a.dtype, a.shape, a.tobytes()) for a in bundle_arrays(bundle)]
            assert after == before, f"{case.kernel}/{case.fmt} on {case.platform}"

    def test_nbytes_counts_what_a_host_timed_mttkrp_caches(self):
        cfg = RunnerConfig(
            measure_host=True, repeats=1, warmup=0, kernels=(Kernel.MTTKRP,)
        )
        cases = enumerate_cases({"tiny": TINY_SPEC}, cfg, platforms=("Bluesky",))
        bundle = prepare_bundle(cases[0])
        bundle.matrices  # draw the operands so only the kernel's caches remain
        for case in cases:
            tensor = bundle.coo if case.fmt == "coo" else bundle.hicoo
            before, cached = bundle.nbytes, tensor.cache_nbytes
            SuiteRunner(get_platform(case.platform), case.runner_config()).run_kernel(
                bundle, case.kernel, case.fmt
            )
            grown = tensor.cache_nbytes - cached
            assert grown > 0 and bundle.nbytes == before + grown, case.fmt

    def test_cache_hits_and_evicts_least_recently_used(self):
        a, b, c = tiny_cases(names=("a", "b", "c"))
        size = prepare_bundle(a).nbytes
        cache = BundleCache(budget_bytes=2 * size + size // 2)
        first = cache.get(a)
        assert cache.get(a) is first
        cache.get(b)
        cache.get(a)  # a is now the most recently used
        cache.get(c)  # evicts b
        assert len(cache) == 2 and cache.nbytes <= cache.budget_bytes
        assert cache.get(a) is first
        too_small = BundleCache(budget_bytes=size - 1)
        too_small.get(a)
        assert len(too_small) == 0 and too_small.nbytes == 0

    @pytest.mark.slow
    def test_one_worker_serving_a_b_a_matches_fresh_inline_runs(self):
        cfg = RunnerConfig(measure_host=False)
        cases = enumerate_cases(
            {"a": TINY_SPEC, "b": dict(TINY_SPEC, seed=4)}, cfg,
            platforms=("Bluesky", "DGX-1V"),
        )
        a_cases = [c for c in cases if c.tensor == "a"]
        b_cases = [c for c in cases if c.tensor == "b"]
        worker = PooledWorker(launch_key())
        try:
            for case in a_cases + b_cases + a_cases:
                verdict = worker.call(payload(case), timeout_s=120.0)
                assert verdict["ok"], verdict
                assert canonical(verdict["record"]) == canonical(
                    execute_case(case).to_dict()
                ), case.fingerprint
        finally:
            worker.kill()


# ---------------------------------------------------------------------- #
# Protocol hygiene
# ---------------------------------------------------------------------- #

CHATTY_WORKER = """\
import os
import sys

import repro.bench.executor as executor

real_prepare = executor.prepare_bundle


def chatty_prepare(case):
    # A Python print, a stderr write and a raw fd-1 write, each over
    # the 64 KiB a pipe buffers.
    print("p" * 70000)
    sys.stdout.flush()
    sys.stderr.write("e" * 70000 + "\\n")
    sys.stderr.flush()
    os.write(1, b"w" * 70000 + b"\\n")
    if case.tensor == "dies":
        sys.stderr.write("last words of a dying case\\n")
        sys.stderr.flush()
        os._exit(3)
    return real_prepare(case)


executor.prepare_bundle = chatty_prepare

from repro.bench.worker import main

sys.exit(main([]))
"""


@pytest.mark.slow
class TestProtocolHygiene:
    @pytest.fixture
    def chatty(self, tmp_path):
        script = tmp_path / "chatty_worker.py"
        script.write_text(f"#!{sys.executable}\n" + CHATTY_WORKER)
        script.chmod(0o755)
        # The launch recipe's interpreter slot runs the script, which
        # ignores the "-m repro.bench.worker" arguments it is given.
        _, pkg_root, environ, pid = launch_key()
        worker = PooledWorker((str(script), pkg_root, environ, pid))
        yield worker
        worker.kill()

    def test_flooded_stdout_and_stderr_keep_frames_intact(self, chatty):
        (case,) = tiny_cases()
        for _ in range(2):  # the worker survives to serve a second case
            verdict = chatty.call(payload(case), timeout_s=120.0)
            assert verdict["ok"], verdict
            assert canonical(verdict["record"]) == canonical(execute_case(case).to_dict())

    def test_crash_detail_carries_the_stderr_tail(self, chatty):
        (case,) = tiny_cases(names=("dies",))
        with pytest.raises(WorkerCrash) as err:
            chatty.call(payload(case), timeout_s=120.0)
        detail = str(err.value)
        assert detail.startswith("worker exit 3 without verdict: ")
        assert detail.endswith("last words of a dying case")
        assert len(detail) <= len("worker exit 3 without verdict: ") + 400
        assert not chatty.alive()


# ---------------------------------------------------------------------- #
# Pool lifecycle
# ---------------------------------------------------------------------- #


@pytest.mark.slow
class TestPoolLifecycle:
    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        shutdown_pool()
        yield
        shutdown_pool()

    def test_environment_change_retires_idle_workers(self, monkeypatch):
        (case,) = tiny_cases()
        pool = get_pool()
        assert pool.run(payload(case), 120.0)["ok"]
        assert pool.run(payload(case), 120.0)["ok"]
        (old,) = pool.pids()  # a serial caller reuses its one worker
        monkeypatch.setenv("REPRO_POOL_LIFECYCLE_PROBE", "1")
        assert pool.run(payload(case), 120.0)["ok"]
        (new,) = pool.pids()
        assert new != old and not exists(old)

    def test_shutdown_reaps_every_worker(self, tmp_path):
        cases = tiny_cases(names=("a", "b", "c", "d"))
        report = SuiteExecutor(
            cases, RunStore(tmp_path / "run.jsonl"),
            ExecutorConfig(isolation="process", timeout_s=120, workers=2),
        ).run()
        assert len(report.completed) == 4
        pids = get_pool().pids()
        assert 1 <= len(pids) <= 2 and all(exists(p) for p in pids)
        shutdown_pool()
        assert get_pool().pids() == []
        assert not any(exists(p) for p in pids)

    def test_no_zombie_after_crashes_and_timeouts(self, tmp_path):
        # Cases run in name order; the sweep ends on a timeout kill, with
        # no later spawn whose housekeeping could reap a leaked worker.
        cases = tiny_cases(names=("a_fine", "b_killed", "c_hung"))
        report = SuiteExecutor(
            cases, RunStore(tmp_path / "run.jsonl"),
            ExecutorConfig(
                isolation="process", timeout_s=4, retries=1,
                faults={
                    "b_killed": {"kill_attempts": 1},
                    "c_hung": {"hang_attempts": 9, "hang_s": 120},
                },
            ),
            sleep=lambda s: None,
        ).run()
        assert len(report.completed) == 2 and len(report.quarantined) == 1
        assert report.crashes == 1 and report.timeouts == 2
        assert zombie_children() == []
        assert all(exists(p) for p in get_pool().pids())

    def test_forked_child_spawns_its_own_worker(self, tmp_path):
        # A fork inherits the pool; the pid in the launch key makes the
        # child disown its parent's workers instead of sharing their
        # pipes. Run in a fresh single-threaded interpreter, where fork
        # is safe.
        (case,) = tiny_cases()
        script = textwrap.dedent(f"""
            import json, os, sys
            from repro.bench.pool import get_pool, shutdown_pool
            payload = json.loads({json.dumps(json.dumps(payload(case)))})
            pool = get_pool()
            assert pool.run(payload, 120.0)["ok"]
            (parent_worker,) = pool.pids()
            r, w = os.pipe()
            child = os.fork()
            if child == 0:
                ok = pool.run(payload, 120.0)["ok"]
                pids = pool.pids()
                shutdown_pool()  # reaps the child's own worker only
                try:
                    os.kill(pids[0], 0)
                    reaped = False
                except ProcessLookupError:
                    reaped = True
                os.write(w, json.dumps([ok, pids, reaped]).encode())
                os._exit(0)
            os.close(w)
            ok, child_pids, reaped = json.loads(os.read(r, 4096))
            os.waitpid(child, 0)
            assert ok and len(child_pids) == 1, child_pids
            assert child_pids[0] != parent_worker and reaped
            # The parent's worker is intact and still serves it.
            assert pool.run(payload, 120.0)["ok"]
            assert pool.pids() == [parent_worker]
            print("forked-ok")
        """)
        pkg_root = launch_key()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "forked-ok" in proc.stdout

    def test_concurrent_callers_never_share_a_worker(self):
        # More callers than cores, with a tiny switch interval: a lost
        # update in checkout/checkin would hand one worker to two
        # threads, and their frames would cross.
        cases = tiny_cases(names=("a", "b", "c", "d"))
        expected = {c.fingerprint: canonical(execute_case(c).to_dict()) for c in cases}
        pool = WorkerPool()
        errors = []

        def drive(case):
            try:
                for _ in range(6):
                    verdict = pool.run(payload(case), 120.0)
                    assert verdict["fingerprint"] == case.fingerprint
                    assert canonical(verdict["record"]) == expected[case.fingerprint]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(c,)) for c in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=240)
        finally:
            sys.setswitchinterval(interval)
            alive = [t for t in threads if t.is_alive()]
            pids = pool.pids()
            pool.shutdown()
        assert not alive and not errors, errors
        assert 1 <= len(pids) <= len(cases)
        assert not any(exists(p) for p in pids)
