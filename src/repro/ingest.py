"""Live FireHose ingestion benchmark: stream generation racing analytics.

The paper's power-law generator descends from the FireHose streaming
benchmarks, where an unbounded event stream races analytics over a live
window.  This module builds that scenario end-to-end on the suite's own
primitives:

* a **seeded generator thread** emits power-law event batches
  (:func:`repro.generate.powerlaw.powerlaw_stream`) into a **bounded
  queue** — when ingestion falls behind, the queue fills and the
  generator blocks (backpressure), exactly FireHose's drop-or-stall
  decision point (we stall and count the stalls);
* **N ingest workers** drain the queue concurrently, each leasing a
  :class:`repro.parallel.slots.SlotPool` worker slot per batch.  The
  expensive per-batch work (validation, coalescing, HiCOO block
  decomposition) runs concurrently; the final window application is
  **sequenced by batch id**, so the live window is bit-identical to a
  serial replay of the stream no matter how workers interleave, churn,
  or how deep the queue runs — the property the chaos tests pin;
* the live window is a :class:`repro.stream.SlidingWindowTensor`:
  applying a batch only appends it and expires the oldest, and the
  window is coalesced when a query (or the end of the run) reads it.
  It is re-blocked **incrementally** into HiCOO by
  :class:`WindowBlocker` — each batch's block/element split is computed
  once on admit and snapshots only merge the cached parts;
* the main thread fires **periodic kernel queries** (Ttv / Mttkrp on
  COO and HiCOO snapshots) while ingestion continues, with per-query
  latency, roofline attribution on the final measurements, and injected
  :class:`~repro.parallel.chaos.ChaosError` failures (when the query
  backend is a ChaosBackend) tolerated without corrupting the window.

Results surface as :class:`~repro.metrics.perf.PerfRecord` objects with
throughput and p50/p95/p99 latency in ``extra["ingest"]``, spans and
counters through the :mod:`repro.obs` tracer and metrics registry, and
an optional :class:`~repro.bench.runstore.RunStore` journal reusing the
sweep executor's quarantine/resume discipline for long-running runs.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ReproError
from repro.generate.powerlaw import powerlaw_stream
from repro.kernels.mttkrp import coo_mttkrp, hicoo_mttkrp
from repro.kernels.ttv import coo_ttv, hicoo_ttv
from repro.metrics.perf import PerfRecord, efficiency, gflops
from repro.metrics.stats import percentiles
from repro.obs.attribution import attribute
from repro.obs.log import get_logger
from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_KERNEL, CAT_REGION, current_tracer
from repro.parallel.chaos import ChaosError
from repro.parallel.slots import SlotPool
from repro.roofline import RooflineModel, get_platform
from repro.roofline.oi import cost_for, extract_features
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor, _hicoo_sort_order
from repro.stream import SlidingWindowTensor
from repro.types import EINDEX_DTYPE, index_dtype_for
from repro.util.bits import is_pow2
from repro.util.prng import rng_from_seed

#: The (kernel, fmt) cells queried against every window snapshot.
QUERY_CELLS = (("ttv", "coo"), ("ttv", "hicoo"), ("mttkrp", "coo"), ("mttkrp", "hicoo"))

_SENTINEL = object()

_LOG = get_logger("repro.ingest")


class IngestError(ReproError, RuntimeError):
    """An ingestion-path failure (misconfiguration or injected fault)."""


@dataclass(frozen=True)
class IngestConfig:
    """One ingestion-benchmark scenario (fully seeded and fingerprintable)."""

    shape: tuple = (512, 512, 16)
    #: Total events emitted by the generator.
    events: int = 100_000
    #: Events per generated batch.
    batch: int = 4096
    #: Live window length in batches.
    window: int = 8
    #: Concurrent ingest workers (and worker-slot count).
    workers: int = 4
    #: Bounded generator->ingest queue depth (backpressure bound).
    queue_depth: int = 8
    #: Batches between query rounds (0 disables queries; a final round
    #: always runs when queries are enabled).
    query_every: int = 8
    rank: int = 8
    alpha: float = 2.0
    #: Modes drawn uniformly (the paper's short dense modes).
    dense_modes: tuple = (-1,)
    seed: int = 0
    block_size: int = 32
    #: Batches a worker ingests before retiring and spawning a fresh
    #: replacement thread (worker churn; 0 = stable workers).
    worker_lifetime: int = 0
    platform: str = "Bluesky"
    #: Inject an :class:`IngestError` when this batch id would be applied
    #: (0 = never) — drives the quarantine/resume CI smoke and tests.
    fail_at_batch: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(
            self, "dense_modes", tuple(int(m) for m in self.dense_modes)
        )
        if self.events < 1 or self.batch < 1:
            raise IngestError("events and batch must be >= 1")
        if self.window < 1 or self.workers < 1 or self.queue_depth < 1:
            raise IngestError("window, workers and queue_depth must be >= 1")
        if self.rank < 1:
            raise IngestError(f"rank must be >= 1, got {self.rank}")
        if self.query_every < 0 or self.worker_lifetime < 0:
            raise IngestError("query_every and worker_lifetime must be >= 0")
        if not is_pow2(self.block_size) or not (1 <= self.block_size <= 256):
            raise IngestError(
                f"block_size must be a power of two in [1, 256], "
                f"got {self.block_size}"
            )

    @property
    def tensor_name(self) -> str:
        return "stream" + "x".join(str(s) for s in self.shape)

    @property
    def nbatches(self) -> int:
        return -(-self.events // self.batch)

    def to_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "events": self.events,
            "batch": self.batch,
            "window": self.window,
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "query_every": self.query_every,
            "rank": self.rank,
            "alpha": self.alpha,
            "dense_modes": list(self.dense_modes),
            "seed": self.seed,
            "block_size": self.block_size,
            "worker_lifetime": self.worker_lifetime,
            "platform": self.platform,
        }

    @property
    def fingerprint(self) -> str:
        """Stable scenario hash over ``to_dict``; only ``fail_at_batch``
        is excluded.

        ``workers``, ``queue_depth`` and ``worker_lifetime`` leave the
        final window bit-identical but change throughput, so they stay
        in the hash.  ``fail_at_batch`` is pure fault injection: a
        resumed run without the fault must match the faulted run's
        fingerprint to clear its quarantine.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    @property
    def case_seed(self) -> int:
        from repro.bench.runner import derive_case_seed

        return derive_case_seed(0, "ingest", self.fingerprint)

    def store_case(self, kernel: str, fmt: str) -> "_StoreCase":
        """A run-store case identity for one of this scenario's records."""
        payload = {
            "tensor": self.tensor_name,
            "kernel": kernel,
            "fmt": fmt,
            "platform": self.platform,
            "ingest": self.to_dict(),
        }
        return _StoreCase(
            fingerprint=f"{self.fingerprint}:{kernel}/{fmt}",
            case_seed=self.case_seed,
            payload=payload,
        )


@dataclass(frozen=True)
class _StoreCase:
    """Duck-typed :class:`~repro.bench.runner.SweepCase` for the run store."""

    fingerprint: str
    case_seed: int
    payload: dict

    def to_dict(self) -> dict:
        return dict(self.payload)


def reference_window_state(config: IngestConfig) -> COOTensor:
    """Serial replay of the stream's final window (the ground truth).

    Bit-identical to the concurrent bench's final ``state``: both
    coalesce the concatenation of the last ``window`` generated batches
    in stream order.
    """
    live: list = []
    for coords, values in powerlaw_stream(
        config.events, config.shape, alpha=config.alpha,
        dense_modes=config.dense_modes, seed=config.seed, batch=config.batch,
    ):
        live.append((coords, values))
        if len(live) > config.window:
            live.pop(0)
    if not live:
        return COOTensor.empty(config.shape)
    coords = np.concatenate([c for c, _ in live], axis=0)
    values = np.concatenate([v for _, v in live])
    return COOTensor(config.shape, coords, values, copy=False).coalesce()


class WindowBlocker:
    """Incremental HiCOO re-blocking of a live sliding window.

    ``HiCOOTensor.from_coo`` re-derives the block/element split of every
    entry on every call, but a sliding window changes by one batch per
    push — so this helper decomposes each batch **once** on admit
    (``coords // B`` and the uint8 remainder) and a snapshot only
    concatenates the cached parts of the live batches, Morton-sorts the
    merged entries, and sums duplicate coordinates.  The per-entry
    division work is never repeated for a batch that stays in the
    window, and snapshots memoize on the window version so back-to-back
    queries against an unchanged window are free.

    ``admit``/``evict`` may race ``snapshot`` (internal lock); the cached
    arrays are treated as immutable after admit.
    """

    def __init__(self, shape: Sequence[int], block_size: int = 32):
        if not is_pow2(block_size) or not (1 <= block_size <= 256):
            raise IngestError(
                f"block_size must be a power of two in [1, 256], got {block_size}"
            )
        self.shape = tuple(int(s) for s in shape)
        self.block_size = int(block_size)
        self._parts: dict = {}  # batch id -> (bcoords, ecoords, values)
        self._lock = threading.Lock()
        self._memo_version = None
        self._memo: "HiCOOTensor | None" = None
        #: Snapshot merges actually performed / served from the memo.
        self.reblocks = 0
        self.cache_hits = 0

    def decompose(self, batch: COOTensor) -> tuple:
        """Split one (coalesced) batch into block/element coordinates.

        Pure function of the batch — safe to run concurrently outside
        any lock; pass the result to :meth:`admit`.
        """
        b = np.int64(self.block_size)
        inds = batch.indices.astype(np.int64, copy=False)
        bcoords = inds // b
        ecoords = (inds - bcoords * b).astype(EINDEX_DTYPE)
        return bcoords, ecoords, np.asarray(batch.values)

    def admit(self, bid: int, part: tuple) -> None:
        with self._lock:
            self._parts[int(bid)] = part

    def evict(self, bid: int) -> None:
        with self._lock:
            self._parts.pop(int(bid), None)

    @property
    def nbatches(self) -> int:
        with self._lock:
            return len(self._parts)

    def snapshot(self, version=None) -> HiCOOTensor:
        """The live window as HiCOO (memoized per window ``version``)."""
        with self._lock:
            if version is not None and version == self._memo_version:
                self.cache_hits += 1
                return self._memo
            parts = [self._parts[k] for k in sorted(self._parts)]
        hic = self._merge(parts)
        with self._lock:
            if version is not None:
                self._memo_version, self._memo = version, hic
            self.reblocks += 1
        return hic

    def _merge(self, parts: list) -> HiCOOTensor:
        if not parts or sum(len(p[2]) for p in parts) == 0:
            return HiCOOTensor.from_coo(
                COOTensor.empty(self.shape), self.block_size
            )
        bc = np.concatenate([p[0] for p in parts], axis=0)
        ec = np.concatenate([p[1] for p in parts], axis=0)
        vals = np.concatenate([p[2] for p in parts])
        perm = _hicoo_sort_order(bc, ec)
        bc, ec, vals = bc[perm], ec[perm], vals[perm]
        # Identical (block, element) coordinates are adjacent after the
        # Morton sort; sum each run (cross-batch duplicates coalesce).
        glob = bc * np.int64(self.block_size) + ec
        if len(glob) > 1:
            fresh = np.concatenate(
                ([True], (np.diff(glob, axis=0) != 0).any(axis=1))
            )
        else:
            fresh = np.array([True])
        starts = np.flatnonzero(fresh)
        vals = np.add.reduceat(vals, starts)
        bc, ec = bc[starts], ec[starts]
        m = len(starts)
        bchange = np.flatnonzero((np.diff(bc, axis=0) != 0).any(axis=1)) + 1
        bstarts = np.concatenate(([0], bchange))
        bptr = np.concatenate((bstarts, [m])).astype(np.int64)
        binds = bc[bstarts].astype(index_dtype_for(self.shape))
        return HiCOOTensor(
            self.shape, self.block_size, bptr, binds,
            np.ascontiguousarray(ec), vals, check=False,
        )


#: ``IngestResult.summary()`` key -> result field, for every key that is
#: not a config echo (``workers``, ``window``).
_SUMMARY_FIELDS = {
    key: key for key in (
        "events", "batches", "evictions", "queries", "query_failures",
        "backpressure_stalls", "queue_max_depth", "duration_s",
        "events_per_s", "latency_s", "window_nnz", "reblocks",
        "reblock_cache_hits",
    )
} | {"churned_workers": "churned"}


@dataclass
class IngestResult:
    """Everything one ingestion-bench run measured."""

    config: IngestConfig
    records: list = field(default_factory=list)
    events: int = 0
    batches: int = 0
    evictions: int = 0
    queries: int = 0
    query_failures: int = 0
    churned: int = 0
    backpressure_stalls: int = 0
    queue_max_depth: int = 0
    duration_s: float = 0.0
    events_per_s: float = 0.0
    #: Enqueue-to-applied batch latency percentiles, seconds (or None).
    latency_s: "dict | None" = None
    #: (kernel, fmt) -> latency percentile dict, seconds.
    query_latency_s: dict = field(default_factory=dict)
    window_nnz: int = 0
    reblocks: int = 0
    reblock_cache_hits: int = 0
    #: The final live window (``None`` for a cache-served resume).
    state: "COOTensor | None" = None

    @property
    def from_cache(self) -> bool:
        return self.state is None

    def summary(self) -> dict:
        """The JSON-safe ingest summary stamped into ``PerfRecord.extra``."""
        out = {key: getattr(self, f) for key, f in _SUMMARY_FIELDS.items()}
        out.update(workers=self.config.workers, window=self.config.window)
        return out

    @classmethod
    def from_summary(
        cls, config: IngestConfig, summary: dict, records: list
    ) -> "IngestResult":
        """The inverse of :meth:`summary`: a cache-served result (no state)
        with its journaled ``records`` and their query latencies."""
        result = cls(
            config=config,
            records=records,
            **{f: summary[key] for key, f in _SUMMARY_FIELDS.items()},
        )
        result.query_latency_s = {
            (r.kernel, r.fmt): r.extra["ingest"]["query_latency_s"]
            for r in records
            if r.kernel != "ingest" and "ingest" in r.extra
        }
        return result

    def as_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "fingerprint": self.config.fingerprint,
            "summary": self.summary(),
            "query_latency_s": {
                f"{k}/{f}": lat for (k, f), lat in self.query_latency_s.items()
            },
            "records": [r.to_dict() for r in self.records],
        }

    def render(self) -> str:
        cfg = self.config
        lat = self.latency_s or {}

        def ms(d, key):
            v = (d or {}).get(key)
            return f"{v * 1e3:8.2f}ms" if v is not None else "       --"

        lines = [
            f"ingest-bench {cfg.tensor_name}: {self.events} events in "
            f"{self.duration_s:.2f}s = {self.events_per_s / 1e3:.1f}k ev/s"
            + (" (cached)" if self.from_cache else ""),
            f"  batches {self.batches} of {cfg.batch} | window {cfg.window} "
            f"| evictions {self.evictions} | final nnz {self.window_nnz}",
            f"  ingest latency p50 {ms(lat, 'p50')} p95 {ms(lat, 'p95')} "
            f"p99 {ms(lat, 'p99')}",
            f"  queue depth max {self.queue_max_depth}/{cfg.queue_depth}, "
            f"backpressure stalls {self.backpressure_stalls}, "
            f"churned workers {self.churned}",
            f"  queries {self.queries} ({self.query_failures} failed), "
            f"window reblocks {self.reblocks} "
            f"(+{self.reblock_cache_hits} cache hits)",
        ]
        if self.query_latency_s:
            lines.append("  query latency:")
            for (kernel, fmt), qlat in sorted(self.query_latency_s.items()):
                rec = next(
                    (r for r in self.records
                     if r.kernel == kernel and r.fmt == fmt), None,
                )
                bf = ""
                if rec is not None:
                    frac = rec.extra.get("roofline", {}).get("bound_fraction")
                    if frac is not None:
                        bf = f"  bound_fraction {frac:.3f}"
                lines.append(
                    f"    {kernel}/{fmt:<6} p50 {ms(qlat, 'p50')} "
                    f"p95 {ms(qlat, 'p95')} p99 {ms(qlat, 'p99')}{bf}"
                )
        return "\n".join(lines)


class IngestBench:
    """One concurrent ingestion run (see module docstring for the wiring).

    Parameters
    ----------
    config:
        The scenario.
    query_backend:
        Backend executing the query kernels (default: the process
        default backend).  A :class:`~repro.parallel.chaos.ChaosBackend`
        here makes query scheduling adversarial; injected
        :class:`ChaosError` failures abort that query round only.
    apply_delay_s:
        Test hook — sleep this long per batch before applying, to force
        backpressure deterministically.
    """

    def __init__(
        self,
        config: IngestConfig,
        query_backend=None,
        apply_delay_s: float = 0.0,
    ):
        self.config = config
        self.query_backend = query_backend
        self.apply_delay_s = float(apply_delay_s)

    # -- worker/bench internals ---------------------------------------- #
    def _ingest_worker(self) -> None:
        cfg = self.config
        tracer = current_tracer()
        metrics = get_metrics()
        done = 0
        while True:
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            if item is _SENTINEL:
                # Re-broadcast so sibling and replacement workers drain
                # too (the generator is done by now, so the slot this get
                # freed cannot be stolen — the put cannot block).
                self._queue.put(_SENTINEL)
                return
            bid, t_enq, coords, values = item
            try:
                with self._slots.lease() as slot:
                    with tracer.span(
                        "ingest.batch", cat=CAT_REGION, bid=bid, slot=slot,
                        nevents=len(values),
                    ):
                        # Concurrent heavy lifting: coalesce + block split.
                        batch = COOTensor(cfg.shape, coords, values).coalesce()
                        part = self._blocker.decompose(batch)
                        if self.apply_delay_s:
                            time.sleep(self.apply_delay_s)
                        applied = self._apply(bid, coords, values, part)
                    if not applied:
                        return
                lat = time.perf_counter() - t_enq
                with self._stats_lock:
                    self._latencies.append(lat)
                metrics.inc("ingest.batches")
                metrics.inc("ingest.events", len(values))
                metrics.observe("ingest.batch_latency_seconds", lat)
            except BaseException as exc:  # noqa: BLE001 - relayed to run()
                self._fail(exc)
                return
            done += 1
            if cfg.worker_lifetime and done >= cfg.worker_lifetime:
                # Worker churn: retire this OS thread, hand the lineage to
                # a fresh one (slot leases make this identity-safe).
                t = threading.Thread(
                    target=self._ingest_worker, name="repro-ingest-churn",
                    daemon=True,
                )
                with self._threads_lock:
                    self._threads.append(t)
                    self._churned += 1
                t.start()
                return

    def _apply(self, bid, coords, values, part) -> bool:
        """Apply batch ``bid`` to the window, sequenced by batch id.

        The queue is FIFO, so in-flight batch ids are consecutive and the
        earliest waiter always equals ``next_bid`` — no deadlock.  Returns
        False when the run has failed and the worker should exit.
        """
        cfg = self.config
        with self._apply_cond:
            while self._next_bid != bid and self._failure is None:
                self._apply_cond.wait(timeout=1.0)
            if self._failure is not None:
                return False
            if cfg.fail_at_batch and bid + 1 >= cfg.fail_at_batch:
                raise IngestError(
                    f"injected ingest failure at batch {bid}"
                )
            expired = self._window.push(coords, values)
            self._blocker.admit(bid, part)
            if expired is not None:
                self._blocker.evict(expired)
            self._next_bid = bid + 1
            self._apply_cond.notify_all()
        return True

    def _fail(self, exc: BaseException) -> None:
        """Record the first failure and unwedge every blocked thread.

        Only the stop event and the condition broadcast are needed: the
        generator and the workers both poll ``_stop`` on a short timeout
        instead of blocking indefinitely on the queue, so nothing here
        may itself block (a blocking drain-and-poison would deadlock a
        depth-1 queue against a stalled generator).
        """
        with self._apply_cond:
            first = self._failure is None
            if first:
                self._failure = exc
            self._stop.set()
            self._apply_cond.notify_all()
        if first:
            _LOG.error(
                "ingest.failed",
                error=f"{type(exc).__name__}: {exc}",
                fingerprint=self.config.fingerprint,
            )

    def _put(self, item) -> bool:
        """Timed put that respects the stop event; False when stopped."""
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def _generate(self) -> None:
        cfg = self.config
        try:
            stream = powerlaw_stream(
                cfg.events, cfg.shape, alpha=cfg.alpha,
                dense_modes=cfg.dense_modes, seed=cfg.seed, batch=cfg.batch,
            )
            for bid, (coords, values) in enumerate(stream):
                if self._stop.is_set():
                    return
                item = (bid, time.perf_counter(), coords, values)
                try:
                    self._queue.put_nowait(item)
                except queue.Full:
                    # Backpressure: the bounded queue is full, so the
                    # generator stalls (FireHose would drop here).
                    self._stalls += 1
                    get_metrics().inc("ingest.backpressure_stalls")
                    if not self._put(item):
                        return
                self._qmax = max(self._qmax, self._queue.qsize())
        except BaseException as exc:  # noqa: BLE001 - relayed to run()
            self._fail(exc)
            return
        finally:
            self._put(_SENTINEL)

    def _run_queries(self, collector: dict) -> None:
        cfg = self.config
        tracer = current_tracer()
        metrics = get_metrics()
        with self._apply_cond:
            snap = self._window.state
            version = self._window.version
        metrics.set_gauge("ingest.window_nnz", snap.nnz)
        if snap.nnz == 0:
            return
        hic = self._blocker.snapshot(version)
        runners = {
            ("ttv", "coo"): lambda: coo_ttv(
                snap, self._vec, 0, self.query_backend
            ),
            ("ttv", "hicoo"): lambda: hicoo_ttv(
                hic, self._vec, 0, self.query_backend
            ),
            ("mttkrp", "coo"): lambda: coo_mttkrp(
                snap, self._mats, 0, self.query_backend, method="atomic"
            ),
            ("mttkrp", "hicoo"): lambda: hicoo_mttkrp(
                hic, self._mats, 0, self.query_backend, method="atomic"
            ),
        }
        for cell in QUERY_CELLS:
            kernel, fmt = cell
            t0 = time.perf_counter()
            try:
                with tracer.span(
                    "ingest.query", cat=CAT_KERNEL, kernel=kernel, fmt=fmt,
                    version=version, nnz=snap.nnz,
                ):
                    runners[cell]()
            except ChaosError:
                self._query_failures += 1
                metrics.inc("ingest.query_failures", kernel=kernel, fmt=fmt)
                _LOG.debug(
                    "ingest.query_failed", kernel=kernel, fmt=fmt,
                    version=version,
                )
                continue
            dt = time.perf_counter() - t0
            collector.setdefault(cell, []).append(dt)
            self._queries += 1
            metrics.inc("ingest.queries", kernel=kernel, fmt=fmt)
            metrics.observe("ingest.query_seconds", dt, kernel=kernel, fmt=fmt)

    def _workers_done(self) -> bool:
        with self._threads_lock:
            threads = list(self._threads)
        return all(not t.is_alive() for t in threads)

    # -- the run ------------------------------------------------------- #
    def run(self) -> IngestResult:
        cfg = self.config
        self._queue: queue.Queue = queue.Queue(maxsize=cfg.queue_depth)
        self._slots = SlotPool(cfg.workers)
        self._window = SlidingWindowTensor(cfg.shape, cfg.window)
        self._blocker = WindowBlocker(cfg.shape, cfg.block_size)
        self._apply_cond = threading.Condition()
        self._stats_lock = threading.Lock()
        self._threads_lock = threading.Lock()
        self._stop = threading.Event()
        self._next_bid = 0
        self._failure: "BaseException | None" = None
        self._latencies: list = []
        self._stalls = 0
        self._qmax = 0
        self._churned = 0
        self._queries = 0
        self._query_failures = 0

        qrng = rng_from_seed(cfg.case_seed)
        self._mats = [
            qrng.random((s, cfg.rank)).astype(np.float32) for s in cfg.shape
        ]
        self._vec = qrng.random(cfg.shape[0]).astype(np.float32)

        tracer = current_tracer()
        collector: dict = {}
        _LOG.info(
            "ingest.started", fingerprint=cfg.fingerprint, events=cfg.events,
            workers=cfg.workers, window=cfg.window, queue_depth=cfg.queue_depth,
        )
        t_start = time.perf_counter()
        with tracer.span(
            "ingest.run", cat=CAT_REGION, events=cfg.events,
            workers=cfg.workers, window=cfg.window,
        ):
            gen = threading.Thread(
                target=self._generate, name="repro-ingest-gen", daemon=True
            )
            self._threads = [
                threading.Thread(
                    target=self._ingest_worker, name=f"repro-ingest-{i}",
                    daemon=True,
                )
                for i in range(cfg.workers)
            ]
            for t in self._threads:
                t.start()
            gen.start()

            last_queried = 0
            while True:
                if self._workers_done() and not gen.is_alive():
                    break
                if cfg.query_every:
                    with self._apply_cond:
                        applied = self._next_bid
                    if applied - last_queried >= cfg.query_every:
                        last_queried = applied
                        self._run_queries(collector)
                        continue
                time.sleep(0.002)
            gen.join()
            while True:
                with self._threads_lock:
                    threads = list(self._threads)
                for t in threads:
                    t.join()
                if self._workers_done():
                    with self._threads_lock:
                        stable = len(self._threads) == len(threads)
                    if stable:
                        break
            if self._failure is not None:
                raise self._failure
            # Final query round: every enabled run measures the kernels on
            # the settled window at least once.
            if cfg.query_every:
                self._run_queries(collector)
        duration = time.perf_counter() - t_start
        # The gauge is set where the window is read: each query round and
        # here, all on this thread, so the last write is the final window.
        state = self._window.state
        get_metrics().set_gauge("ingest.window_nnz", state.nnz)

        result = IngestResult(
            config=cfg,
            events=cfg.events,
            batches=self._next_bid,
            evictions=self._window.evictions,
            queries=self._queries,
            query_failures=self._query_failures,
            churned=self._churned,
            backpressure_stalls=self._stalls,
            queue_max_depth=self._qmax,
            duration_s=duration,
            events_per_s=cfg.events / duration if duration > 0 else 0.0,
            latency_s=percentiles(self._latencies),
            query_latency_s={
                cell: percentiles(times) for cell, times in collector.items()
            },
            window_nnz=state.nnz,
            reblocks=self._blocker.reblocks,
            reblock_cache_hits=self._blocker.cache_hits,
            state=state,
        )
        result.records = self._build_records(result, collector)
        _LOG.info(
            "ingest.completed", fingerprint=cfg.fingerprint,
            events=result.events, batches=result.batches,
            events_per_s=round(result.events_per_s, 1),
            backpressure_stalls=result.backpressure_stalls,
            queries=result.queries, query_failures=result.query_failures,
        )
        return result

    def _build_records(self, result: IngestResult, collector: dict) -> list:
        cfg = self.config
        summary = result.summary()
        records = [
            PerfRecord(
                tensor=cfg.tensor_name,
                kernel="ingest",
                fmt="stream",
                platform=cfg.platform,
                flops=0.0,
                seconds=result.duration_s,
                gflops=0.0,
                bound_gflops=0.0,
                efficiency=0.0,
                host_seconds=result.duration_s,
                host_gflops=0.0,
                extra={"ingest": summary},
            )
        ]
        if not collector:
            return records
        final_hicoo = self._blocker.snapshot(self._window.version)
        features = extract_features(
            result.state, cfg.tensor_name, cfg.block_size, final_hicoo
        )
        model = RooflineModel(get_platform(cfg.platform))
        for (kernel, fmt), times in sorted(collector.items()):
            cost = cost_for(features, kernel, fmt, cfg.rank)
            host_s = float(np.median(times))
            attribution = attribute(model, cost, host_s, host_s)
            achieved = gflops(cost.flops, host_s)
            records.append(
                PerfRecord(
                    tensor=cfg.tensor_name,
                    kernel=kernel,
                    fmt=fmt,
                    platform=cfg.platform,
                    flops=float(cost.flops),
                    seconds=host_s,
                    gflops=achieved,
                    bound_gflops=attribution.bound_gflops,
                    efficiency=efficiency(achieved, attribution.bound_gflops),
                    host_seconds=host_s,
                    host_gflops=achieved,
                    extra={
                        "roofline": attribution.as_dict(),
                        "ingest": {
                            "query_count": len(times),
                            "query_latency_s": percentiles(times),
                            "events_per_s": summary["events_per_s"],
                            "latency_s": summary["latency_s"],
                        },
                    },
                )
            )
        return records


def verify_window_state(result: IngestResult) -> "tuple[bool, str]":
    """Check the run's final window against a serial replay.

    Bit-exact comparison (coordinates *and* float bit patterns).
    Returns ``(ok, detail)``.
    """
    if result.state is None:
        return True, "skipped (cache-served result carries no state)"
    want = reference_window_state(result.config)
    got = result.state
    if got.shape != want.shape:
        return False, f"shape {got.shape} != {want.shape}"
    if not np.array_equal(got.indices, want.indices):
        return False, f"coordinate sets differ (nnz {got.nnz} vs {want.nnz})"
    if not np.array_equal(
        got.values.view(np.uint8), want.values.view(np.uint8)
    ):
        return False, "value bit patterns differ"
    return True, f"bit-exact ({got.nnz} nnz)"


def run_ingest_bench(
    config: IngestConfig,
    store=None,
    resume: bool = False,
    query_backend=None,
) -> IngestResult:
    """Run (or resume) one ingestion benchmark, optionally journaled.

    With ``store`` (a path or :class:`~repro.bench.runstore.RunStore`),
    every resulting :class:`PerfRecord` is journaled under a
    fingerprint derived from the config — the same append-only
    quarantine/resume discipline as ``repro sweep``: a failed run
    appends a quarantine line, a later successful run's record
    supersedes it, and ``resume=True`` serves a completed scenario
    straight from the journal without re-running.
    """
    from repro.bench.runstore import RunStore

    if store is not None and not isinstance(store, RunStore):
        store = RunStore(store)
    marker = config.store_case("ingest", "stream")
    if store is not None and resume and store.exists():
        state = store.load()
        line = state.records.get(marker.fingerprint)
        if line is not None:
            _LOG.info(
                "ingest.resumed_from_store", fingerprint=config.fingerprint,
            )
            prefix = f"{config.fingerprint}:"
            records = [
                PerfRecord.from_dict(state.records[fp]["record"])
                for fp in sorted(state.records)
                if fp.startswith(prefix)
            ]
            return IngestResult.from_summary(
                config, line["record"]["extra"]["ingest"], records
            )

    bench = IngestBench(config, query_backend=query_backend)
    t0 = time.perf_counter()
    try:
        result = bench.run()
    except Exception as exc:
        if store is not None:
            _LOG.warn(
                "ingest.quarantined", fingerprint=config.fingerprint,
                error=f"{type(exc).__name__}: {exc}",
            )
            store.append_quarantine(
                marker,
                [{
                    "attempt": 0,
                    "kind": "error",
                    "detail": f"{type(exc).__name__}: {exc}",
                    "elapsed_s": time.perf_counter() - t0,
                }],
            )
        raise
    if store is not None:
        for record in result.records:
            case = config.store_case(record.kernel, record.fmt)
            store.append_record(case, record, attempt=0, elapsed_s=result.duration_s)
    return result
