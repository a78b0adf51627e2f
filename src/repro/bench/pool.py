"""Process-wide pool of long-lived sweep workers.

A process-isolated case attempt (:meth:`CaseRunner.attempt
<repro.bench.executor.CaseRunner.attempt>`) checks a worker out of the
pool, writes its case payload to the worker's stdin as one JSON line,
waits for one verdict line against the attempt deadline, and checks the
worker back in.  Workers are ``python -m repro.bench.worker`` loops
(:mod:`repro.bench.worker`) that keep prepared tensors resident between
cases, so a sweep pays for an interpreter, its imports and a tensor's
preparation once per worker instead of once per case.

Isolation is the same as one subprocess per attempt:

* a worker that misses the deadline is killed, reaped and discarded
  (:class:`WorkerTimeout`); the next checkout spawns a fresh one;
* a worker whose stdout ends before a whole verdict line arrives died
  mid-case (:class:`WorkerCrash`, carrying its exit status and the tail
  of its stderr) and is reaped and discarded;
* a verdict line, success or handled error, checks the worker back in.

One pool serves the whole process — every ``SuiteExecutor.run``, the
serve daemon and the stealing scheduler's threads — and spawns a worker
lazily whenever none is idle.  Workers are keyed by their launch recipe
(interpreter, package root, environment, parent pid): when the recipe
changes, idle workers are retired and later checkouts spawn workers
that see the new environment.  Workers exit on stdin EOF, so none
outlives its parent; :func:`shutdown_pool` reaps them all (it also runs
at interpreter exit).
"""

from __future__ import annotations

import atexit
import json
import os
import select
import subprocess
import sys
import threading
import time

#: Bytes of a worker's stderr kept for a crash's failure detail; the
#: rest is drained and dropped so a chatty case never fills the pipe.
STDERR_TAIL_BYTES = 4096
#: Seconds a retiring worker gets to exit on stdin EOF before it is
#: killed.
RETIRE_GRACE_S = 5.0


class WorkerTimeout(Exception):
    """The worker missed the attempt deadline; it was killed."""


class WorkerCrash(Exception):
    """The worker died without writing a whole verdict line."""


def launch_key() -> tuple:
    """The recipe a worker is spawned from: interpreter, the directory
    this ``repro`` package is imported from, the environment and the
    parent's pid."""
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return (sys.executable, pkg_root, tuple(sorted(os.environ.items())), os.getpid())


class PooledWorker:
    """One ``python -m repro.bench.worker`` process and its pipes."""

    def __init__(self, key: tuple):
        executable, pkg_root, environ, pid = key
        env = dict(environ)
        # The worker must import this very repro package regardless of
        # how the parent found it.
        env["PYTHONPATH"] = pkg_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.key = key
        self.owner_pid = pid
        self.proc = subprocess.Popen(
            [executable, "-m", "repro.bench.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        self._tail = bytearray()

    def alive(self) -> bool:
        return self.proc.poll() is None

    def call(self, payload: dict, timeout_s: float) -> dict:
        """Send one case payload and return its verdict.

        Raises :class:`WorkerTimeout` (the worker has been killed) or
        :class:`WorkerCrash` (the worker is dead and reaped).
        """
        deadline = time.monotonic() + timeout_s
        self._tail.clear()
        try:
            self.proc.stdin.write(json.dumps(payload).encode("utf-8") + b"\n")
            self.proc.stdin.flush()
        except OSError:  # the worker is already gone (broken pipe)
            self._crash(deadline)
        out_fd = self.proc.stdout.fileno()
        err_fd = self.proc.stderr.fileno()
        fds = [out_fd, err_fd]
        frame = bytearray()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                self.kill()
                raise WorkerTimeout(f"worker exceeded {timeout_s:g}s; killed")
            ready, _, _ = select.select(fds, [], [], remaining)
            if err_fd in ready and not self._drain_stderr(err_fd):
                fds.remove(err_fd)
            if out_fd not in ready:
                continue
            chunk = os.read(out_fd, 65536)
            if not chunk:  # EOF before a whole frame: died mid-case
                self._crash(deadline)
            start = len(frame)
            frame += chunk
            end = frame.find(b"\n", start)
            if end >= 0:
                try:
                    return json.loads(frame[:end])
                except ValueError as exc:
                    self.kill()
                    raise WorkerCrash(f"malformed verdict frame: {exc}") from None

    def _drain_stderr(self, fd: int) -> bool:
        """Read what is ready on stderr into the tail; False at EOF."""
        chunk = os.read(fd, 65536)
        if not chunk:
            return False
        self._tail += chunk
        del self._tail[:-STDERR_TAIL_BYTES]
        return True

    def _crash(self, deadline: float):
        """Collect the dead worker's stderr and exit status, then raise."""
        err_fd = self.proc.stderr.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                break
            ready, _, _ = select.select([err_fd], [], [], remaining)
            if not ready or not self._drain_stderr(err_fd):
                break
        try:
            self.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
        tail = self._tail.decode("utf-8", "replace").strip()[-400:]
        raise WorkerCrash(
            f"worker exit {self.proc.returncode} without verdict"
            + (f": {tail}" if tail else "")
        )

    def kill(self) -> None:
        """Kill and reap the worker, closing the parent's pipe ends."""
        if self.owner_pid == os.getpid():
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
        self._close()

    def _close(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            try:
                pipe.close()
            except OSError:
                pass


class WorkerPool:
    """Idle long-lived workers, checked out one per case attempt."""

    def __init__(self):
        self._lock = threading.Lock()
        self._key = None
        self._idle: list = []
        #: Every worker this pool spawned and has not yet retired.
        self._live: set = set()

    def run(self, payload: dict, timeout_s: float) -> dict:
        """Run one case payload on a pooled worker; its verdict.

        Raises :class:`WorkerTimeout` or :class:`WorkerCrash`; the
        worker is discarded in both cases, and on any other exception
        (an interrupt mid-case leaves it in an unknown state).
        """
        worker = self._checkout()
        try:
            verdict = worker.call(payload, timeout_s)
        except BaseException:
            self._discard(worker)
            raise
        self._checkin(worker)
        return verdict

    def pids(self) -> list:
        """Pids of the live workers, idle or checked out."""
        with self._lock:
            return sorted(w.proc.pid for w in self._live)

    def shutdown(self) -> None:
        """Retire every worker, idle or checked out, and reap it."""
        with self._lock:
            workers = list(self._live)
            self._idle = []
            self._key = None
        self._retire(workers)

    # ------------------------------------------------------------------ #
    def _checkout(self) -> PooledWorker:
        key = launch_key()
        stale = []
        worker = None
        with self._lock:
            if key != self._key:
                stale, self._idle, self._key = self._idle, [], key
            while self._idle and worker is None:
                candidate = self._idle.pop()
                if candidate.alive():
                    worker = candidate
                else:
                    stale.append(candidate)
        self._retire(stale)
        if worker is None:
            worker = PooledWorker(key)
            with self._lock:
                self._live.add(worker)
        return worker

    def _checkin(self, worker: PooledWorker) -> None:
        with self._lock:
            if worker.key == self._key and worker in self._live:
                self._idle.append(worker)
                return
        self._retire([worker])

    def _discard(self, worker: PooledWorker) -> None:
        with self._lock:
            self._live.discard(worker)
        worker.kill()

    def _retire(self, workers: list) -> None:
        """Close the workers' stdin so they exit, then reap them.

        A worker spawned by another process (this one is a fork of its
        parent) is only disowned: its pipe ends are closed here, and the
        process that spawned it reaps it.
        """
        if not workers:
            return
        with self._lock:
            self._live.difference_update(workers)
        own = [w for w in workers if w.owner_pid == os.getpid()]
        for worker in own:
            try:
                worker.proc.stdin.close()
            except OSError:
                pass
        deadline = time.monotonic() + RETIRE_GRACE_S
        for worker in own:
            try:
                worker.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
        for worker in workers:
            worker.kill()  # kills a straggler; only disowns a foreign worker


_POOL: "WorkerPool | None" = None
_POOL_LOCK = threading.Lock()


def get_pool() -> WorkerPool:
    """The process-wide worker pool (created on first use)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = WorkerPool()
            atexit.register(shutdown_pool)
        return _POOL


def shutdown_pool() -> None:
    """Retire and reap every worker of the process-wide pool.

    The pool stays usable: the next checkout spawns a fresh worker.
    """
    with _POOL_LOCK:
        pool = _POOL
    if pool is not None:
        pool.shutdown()
