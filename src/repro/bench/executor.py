"""Resilient sharded suite execution on top of :class:`SuiteRunner`.

``SuiteRunner.run_dataset`` is a single in-process loop: one hung or
crashing case loses the whole sweep, and a long (tensor x kernel x
format x platform) sweep — the paper's Figures 4-7 — cannot be split
across processes or picked up after an interruption.  This module is the
execution layer that fixes that:

* the sweep is enumerated into a deterministic case list
  (:func:`repro.bench.runner.enumerate_cases`), each case identified by
  a stable fingerprint with an RNG seed derived from that fingerprint;
* cases partition into shards by ``index % shards``, so ``N`` parallel
  invocations cover the sweep disjointly;
* each case attempt runs in an isolated worker process under a
  per-attempt deadline; a hang is killed, a crash is contained.  The
  workers are long-lived (:mod:`repro.bench.worker`): a process-wide
  pool (:mod:`repro.bench.pool`) hands each attempt to an idle one over
  a line-framed stdin/stdout protocol, and each worker keeps prepared
  tensors resident between cases, so a case no longer pays for an
  interpreter, its imports and its tensor's preparation;
* failed cases retry with exponential backoff, and cases that exhaust
  their retries are **quarantined** with their failure log instead of
  aborting the sweep;
* every completed :class:`~repro.metrics.perf.PerfRecord` is journaled
  to an append-only JSONL :class:`~repro.bench.runstore.RunStore`, so an
  interrupted run resumes by skipping already-fingerprinted cases and
  shard stores merge into one report.

Fault injection (``ExecutorConfig.faults``) drives the resilience tests
and the CI smoke: a matched case can be made to raise a genuine
:class:`~repro.parallel.chaos.ChaosError` from a real
:class:`~repro.parallel.chaos.ChaosBackend` region, hang, or hard-kill
its worker for the first ``n`` attempts, deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

from repro.bench.runner import (
    RunnerConfig,
    SuiteRunner,
    SweepCase,
    TensorBundle,
    derive_case_seed,
    enumerate_cases,
)
from repro.bench.runstore import RunStore
from repro.errors import ReproError
from repro.metrics.perf import PerfRecord
from repro.obs.context import (
    TraceContext,
    activate_context,
    current_context,
    derive_span_id,
    new_trace_id,
)
from repro.obs.log import get_logger
from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_CASE, Trace, current_tracer

_LOG = get_logger("repro.exec")

#: Failure kinds recorded in retry/quarantine logs.
FAIL_ERROR = "error"      # the case raised inside the worker
FAIL_TIMEOUT = "timeout"  # the worker exceeded the per-case timeout
FAIL_CRASH = "crash"      # the worker died without a verdict

ISOLATION_MODES = ("process", "inline")


class ExecutorError(ReproError, RuntimeError):
    """Misconfiguration of the sweep executor (not a case failure)."""


@dataclass
class ExecutorConfig:
    """Resilience and sharding knobs of a sweep execution."""

    shards: int = 1
    shard_index: int = 0
    #: Wall-clock budget per case *attempt* with process isolation, from
    #: handing the case to a pooled worker to its verdict (a freshly
    #: spawned worker's interpreter start and imports included).
    timeout_s: float = 120.0
    #: Re-attempts after the first failure (0 = fail straight to
    #: quarantine).
    retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    #: Skip cases whose fingerprint already has a record in the store.
    resume: bool = False
    #: ``"process"`` runs each case in a pooled worker process (timeouts
    #: and crashes contained); ``"inline"`` runs in-process — fast, used by
    #: tests and trusted local sweeps, but a hang or hard crash is not
    #: contained.
    isolation: str = "process"
    #: Fault-injection table: case selector -> fault spec (see
    #: :func:`match_fault`).
    faults: dict = field(default_factory=dict)
    #: Concurrent case workers inside this shard.  ``1`` keeps the
    #: historical serial loop; ``> 1`` drives the shard's cases through
    #: the work-stealing pool (:mod:`repro.serve.scheduler`): each worker
    #: owns a deque and steals from a victim's tail when its own drains,
    #: so a straggling case never idles the other workers.  Records stay
    #: bit-identical to the serial run (case seeds derive from
    #: fingerprints, never from execution order).
    workers: int = 1
    #: Seed of the per-worker victim-selection RNGs of the stealing pool.
    steal_seed: int = 0

    def __post_init__(self):
        if self.shards < 1:
            raise ExecutorError(f"shards must be >= 1 (got {self.shards})")
        if not 0 <= self.shard_index < self.shards:
            raise ExecutorError(
                f"shard_index {self.shard_index} out of range for "
                f"{self.shards} shard(s)"
            )
        if self.isolation not in ISOLATION_MODES:
            raise ExecutorError(
                f"unknown isolation {self.isolation!r}; expected one of "
                f"{ISOLATION_MODES}"
            )
        if self.retries < 0:
            raise ExecutorError(f"retries must be >= 0 (got {self.retries})")
        if self.workers < 1:
            raise ExecutorError(f"workers must be >= 1 (got {self.workers})")
        if not self.timeout_s > 0:
            raise ExecutorError(f"timeout_s must be > 0 (got {self.timeout_s})")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ExecutorError(
                f"backoff_base_s and backoff_max_s must be >= 0 (got "
                f"{self.backoff_base_s}, {self.backoff_max_s})"
            )


def match_fault(case: SweepCase, faults: "dict | None") -> dict:
    """The fault spec applying to ``case``, or ``{}``.

    Selectors, most specific first: the case fingerprint, then
    ``"tensor/kernel/fmt"``, then the tensor name, then ``"*"``.  A fault
    spec is a dict with any of ``fail_attempts`` (raise a ChaosError via
    a real ChaosBackend for attempts < n), ``hang_attempts``/``hang_s``
    (sleep — process isolation converts this into a timeout kill),
    ``kill_attempts`` (hard ``os._exit`` of the worker; process isolation
    only), and ``delay_s`` (sleep then *succeed* — an injected straggler,
    used to exercise work stealing without failing the case).
    """
    if not faults:
        return {}
    for key in (
        case.fingerprint,
        f"{case.tensor}/{case.kernel}/{case.fmt}",
        case.tensor,
        "*",
    ):
        spec = faults.get(key)
        if spec is not None:
            return dict(spec)
    return {}


def materialize_tensor(spec):
    """Build the case's COO tensor from its self-describing spec.

    Spec kinds: ``synthetic`` (Table 3 registry key), ``real`` (Table 2
    surrogate key), ``file`` (``.tns``/``.npz`` path), ``random``
    (uniform random shape/nnz/seed).
    """
    spec = dict(spec)
    kind = spec.get("kind")
    if kind == "synthetic":
        from repro.generate.registry import get_synthetic

        return get_synthetic(spec["key"]).generate(
            scale=float(spec.get("scale", 1000.0)), seed=int(spec.get("seed", 0))
        )
    if kind == "real":
        from repro.datasets.surrogate import make_surrogate

        return make_surrogate(
            spec["key"], scale=float(spec.get("scale", 1000.0)),
            seed=int(spec.get("seed", 0)),
        )
    if kind == "file":
        from repro.sptensor import load_npz, read_tns

        path = spec["path"]
        return load_npz(path) if str(path).endswith(".npz") else read_tns(path)
    if kind == "random":
        from repro.sptensor.coo import COOTensor

        return COOTensor.random(
            tuple(int(s) for s in spec["shape"]),
            int(spec["nnz"]),
            rng=int(spec.get("seed", 0)),
        )
    raise ExecutorError(f"unknown tensor spec kind {kind!r}")


def _inject_chaos_failure(case: SweepCase, attempt: int) -> None:
    """Raise a genuine ChaosError from a real chaos-backend region.

    The chaos seed mixes in the attempt number, mirroring how a real
    transient fault differs between attempts; the *decision* to fail is
    the fault spec's, so a flaky case deterministically fails its first
    ``fail_attempts`` attempts and then succeeds.
    """
    from repro.parallel import ChaosBackend, OpenMPBackend

    backend = ChaosBackend(
        OpenMPBackend(nthreads=2),
        seed=derive_case_seed(case.case_seed, "chaos", attempt),
        failure_rate=1.0,
    )
    try:
        backend.parallel_for(4, lambda lo, hi: None)
    finally:
        backend.shutdown()
    raise ExecutorError("chaos injection with failure_rate=1.0 did not raise")


def prepare_bundle(case: SweepCase) -> TensorBundle:
    """Materialize the case's tensor and prepare it for the kernels."""
    tensor = materialize_tensor(case.tensor_spec)
    return TensorBundle.prepare(case.tensor, tensor, case.runner_config())


#: Bytes of prepared tensor arrays one bundle cache keeps resident.
BUNDLE_CACHE_BYTES = 128 << 20


class BundleCache:
    """Prepared tensor bundles, least recently used evicted first.

    The key is every input of the preparation: tensor name, tensor spec,
    base seed, block size and rank.  Sizes are taken at each miss, not
    at insertion, because a bundle grows when a kernel first draws its
    operands or caches index columns and plans on its tensors.  A bundle
    larger than the whole budget is prepared and used but not kept.

    Every :class:`CaseRunner` owns one, and so does each pooled worker
    process, so a tensor is materialized once per sweep, daemon or
    worker, not once per case.  Kernels only read a bundle, so a reused
    bundle yields the same record as a fresh one.  :meth:`get` holds a
    lock while it prepares, so threads that want the same new tensor
    build it once.
    """

    def __init__(self, budget_bytes: int = BUNDLE_CACHE_BYTES):
        self.budget_bytes = budget_bytes
        self._bundles: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._bundles)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bundles.values())

    def get(self, case: SweepCase) -> TensorBundle:
        """The case's prepared bundle, from the cache or freshly built."""
        key = (case.tensor, case.tensor_spec, case.base_seed, case.block_size, case.rank)
        with self._lock:
            bundle = self._bundles.get(key)
            if bundle is not None:
                self._bundles.move_to_end(key)
                return bundle
            bundle = prepare_bundle(case)
            if bundle.nbytes <= self.budget_bytes:
                total = self.nbytes + bundle.nbytes
                while total > self.budget_bytes:
                    _, evicted = self._bundles.popitem(last=False)
                    total -= evicted.nbytes
                self._bundles[key] = bundle
            return bundle


def execute_case(
    case: SweepCase, attempt: int = 0, faults: "dict | None" = None, prepare=None
) -> PerfRecord:
    """Run one case to a :class:`PerfRecord` (the worker's core).

    Raises whatever the kernel raises — callers translate exceptions
    into retry/quarantine decisions.  Injected ``fail_attempts`` faults
    raise :class:`~repro.parallel.chaos.ChaosError` here, through a real
    chaos backend, so the retry path is exercised end to end.
    ``prepare`` maps the case to its :class:`TensorBundle`.  It defaults
    to :func:`prepare_bundle`, a fresh bundle per call; inline attempts
    and pooled workers pass :meth:`BundleCache.get`, so the cases of one
    tensor share one bundle.
    """
    fault = match_fault(case, faults)
    if attempt < int(fault.get("fail_attempts", 0)):
        _inject_chaos_failure(case, attempt)
    delay_s = float(fault.get("delay_s", 0.0))
    if delay_s > 0.0:
        time.sleep(delay_s)  # injected straggler: slow, not failing
    from repro.roofline.platform import get_platform

    runner = SuiteRunner(get_platform(case.platform), case.runner_config())
    bundle = (prepare or prepare_bundle)(case)
    return runner.run_kernel(bundle, case.kernel, case.fmt)


@dataclass
class ExecutorReport:
    """What one :meth:`SuiteExecutor.run` did, by fingerprint."""

    shards: int = 1
    shard_index: int = 0
    completed: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    quarantined: list = field(default_factory=list)
    #: fingerprint -> failure log of quarantined cases.
    failures: dict = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    #: Cases migrated between worker deques by the stealing pool
    #: (always 0 for the serial ``workers=1`` loop).
    steals: int = 0

    @property
    def total(self) -> int:
        return len(self.completed) + len(self.skipped) + len(self.quarantined)

    def render(self) -> str:
        lines = [
            f"shard {self.shard_index + 1}/{self.shards}: "
            f"{len(self.completed)} completed, {len(self.skipped)} skipped "
            f"(resume), {len(self.quarantined)} quarantined, "
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.crashes} crashes, {self.steals} steals"
        ]
        for fp in self.quarantined:
            log = self.failures.get(fp, [])
            detail = "; ".join(
                f"attempt {f['attempt']}: [{f['kind']}] {f['detail']}" for f in log
            )
            lines.append(f"  quarantined {fp}: {detail}")
        return "\n".join(lines)


@dataclass
class CaseOutcome:
    """The terminal verdict of one case's retry state machine."""

    fingerprint: str
    completed: bool
    record: "PerfRecord | None" = None
    #: The journal line appended for this case (record or quarantine).
    line: "dict | None" = None
    failures: list = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    #: Wall-clock of the successful attempt (0.0 when quarantined).
    elapsed_s: float = 0.0


class CaseRunner:
    """The per-case attempt/retry/quarantine state machine.

    One instance is shared by the serial :class:`SuiteExecutor` loop, the
    work-stealing pool (:mod:`repro.serve.scheduler`) and the serve
    daemon, so every execution surface retries, journals, traces and
    counts cases identically.  :meth:`run_case` is thread-safe: journal
    appends serialize through ``store_lock`` and the tracer/metrics
    substrates are slot/thread-sharded.
    """

    def __init__(self, config: "ExecutorConfig | None" = None, sleep=time.sleep):
        self.config = config or ExecutorConfig()
        self._sleep = sleep
        #: Inline attempts' prepared tensors, kept for this runner's life.
        self.bundles = BundleCache()

    def backoff_s(self, attempt: int) -> float:
        """Exponential backoff before re-attempt ``attempt + 1``."""
        cfg = self.config
        return min(cfg.backoff_max_s, cfg.backoff_base_s * (2.0 ** attempt))

    def run_case(
        self, case: SweepCase, store: RunStore, store_lock=None
    ) -> CaseOutcome:
        """Run one case to its terminal verdict, journaling the outcome."""
        cfg = self.config
        tracer = current_tracer()
        metrics = get_metrics()
        # An active trace context (daemon request, traced sweep) links
        # this case's spans into the distributed trace; with an enabled
        # tracer but no context, synthesize one so worker subprocesses
        # still correlate back to the parent trace.
        ctx = current_context()
        if ctx is None and tracer.enabled:
            ctx = TraceContext(
                trace_id=getattr(tracer, "trace_id", "") or new_trace_id()
            )
        labels = {
            "kernel": case.kernel, "fmt": case.fmt, "platform": case.platform,
        }
        outcome = CaseOutcome(fingerprint=case.fingerprint, completed=False)
        for attempt in range(cfg.retries + 1):
            t0 = time.perf_counter()
            span_attrs = dict(
                fingerprint=case.fingerprint, tensor=case.tensor,
                kernel=case.kernel, fmt=case.fmt, platform=case.platform,
                attempt=attempt, isolation=cfg.isolation,
            )
            attempt_ctx = None
            if ctx is not None:
                span_id = derive_span_id(
                    ctx.trace_id, case.fingerprint, attempt
                )
                span_attrs["span_id"] = span_id
                attempt_ctx = ctx.child(span_id)
            with tracer.span("case", cat=CAT_CASE, **span_attrs):
                record, failure = self.attempt(case, attempt, attempt_ctx)
            elapsed = time.perf_counter() - t0
            if record is not None:
                with store_lock or _NULL_LOCK:
                    line = store.append_record(case, record, attempt, elapsed)
                outcome.completed = True
                outcome.record = record
                outcome.line = line
                outcome.elapsed_s = elapsed
                metrics.inc("exec.completed", **labels)
                metrics.observe("exec.case_seconds", elapsed, **labels)
                _LOG.debug(
                    "case.completed", fingerprint=case.fingerprint,
                    kernel=case.kernel, fmt=case.fmt, attempt=attempt,
                    elapsed_s=round(elapsed, 6),
                )
                return outcome
            outcome.failures.append(failure)
            _LOG.debug(
                "case.failed", fingerprint=case.fingerprint,
                kind=failure["kind"], attempt=attempt,
                detail=failure["detail"],
            )
            if failure["kind"] == FAIL_TIMEOUT:
                outcome.timeouts += 1
                metrics.inc("exec.timeouts", **labels)
            elif failure["kind"] == FAIL_CRASH:
                outcome.crashes += 1
                metrics.inc("exec.crashes", **labels)
            if attempt < cfg.retries:
                outcome.retries += 1
                metrics.inc("exec.retries", **labels)
                self._sleep(self.backoff_s(attempt))
        with store_lock or _NULL_LOCK:
            outcome.line = store.append_quarantine(case, outcome.failures)
        metrics.inc("exec.quarantined", **labels)
        _LOG.warn(
            "case.quarantined", fingerprint=case.fingerprint,
            kernel=case.kernel, fmt=case.fmt,
            attempts=len(outcome.failures),
        )
        return outcome

    # ------------------------------------------------------------------ #
    def attempt(self, case: SweepCase, attempt: int, context=None):
        """One attempt -> ``(record, None)`` or ``(None, failure_dict)``.

        ``context`` (a :class:`TraceContext` or ``None``) scopes the
        attempt into the distributed trace: inline attempts activate it
        on this thread, process attempts inject it into the worker so
        the worker's spans/metrics come home in the verdict.
        """
        if self.config.isolation == "inline":
            return self._inline_attempt(case, attempt, context)
        return self._process_attempt(case, attempt, context)

    def _inline_attempt(self, case: SweepCase, attempt: int, context=None):
        run = partial(
            execute_case, case, attempt, self.config.faults, prepare=self.bundles.get
        )
        try:
            if context is not None:
                with activate_context(context):
                    return run(), None
            return run(), None
        except Exception as exc:  # noqa: BLE001 - converted into a failure
            return None, {
                "kind": FAIL_ERROR,
                "attempt": attempt,
                "detail": f"{type(exc).__name__}: {exc}",
            }

    def _process_attempt(self, case: SweepCase, attempt: int, context=None):
        from repro.bench.pool import WorkerCrash, WorkerTimeout, get_pool

        cfg = self.config
        payload = {"case": case.to_dict(), "attempt": attempt, "faults": cfg.faults}
        if context is not None:
            payload["trace"] = context.to_dict()
        try:
            verdict = get_pool().run(payload, cfg.timeout_s)
        except WorkerTimeout as exc:
            return None, {"kind": FAIL_TIMEOUT, "attempt": attempt, "detail": str(exc)}
        except WorkerCrash as exc:
            return None, {"kind": FAIL_CRASH, "attempt": attempt, "detail": str(exc)}
        self._absorb_verdict(verdict)
        if verdict.get("ok"):
            return PerfRecord.from_dict(verdict["record"]), None
        return None, {
            "kind": FAIL_ERROR,
            "attempt": attempt,
            "detail": str(verdict.get("error", "worker reported failure")),
        }

    def _absorb_verdict(self, verdict: dict) -> None:
        """Fold worker-subprocess telemetry into this process.

        A traced worker ships its frozen span buffer and metrics dump in
        the verdict (see :mod:`repro.bench.worker`); adopting them here
        is what closes the telemetry hole where subprocess ``exec.*``
        counters and kernel spans vanished at the process boundary.
        Malformed telemetry is logged and dropped — it must never fail
        the case that carried it.
        """
        data = verdict.get("trace")
        if data:
            tracer = current_tracer()
            if tracer.enabled:
                try:
                    tracer.adopt(Trace.from_dict(data))
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    _LOG.warn("verdict.trace_malformed", error=str(exc))
        dump = verdict.get("metrics")
        if dump:
            try:
                get_metrics().absorb_dict(dump)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                _LOG.warn("verdict.metrics_malformed", error=str(exc))


class _NullLock:
    """Lock stand-in for single-threaded callers."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_LOCK = _NullLock()


class SuiteExecutor:
    """Runs a shard of an enumerated sweep against a run store."""

    def __init__(
        self,
        cases: "list[SweepCase]",
        store: RunStore,
        config: "ExecutorConfig | None" = None,
        sleep=time.sleep,
    ):
        self.cases = list(cases)
        self.store = store
        self.config = config or ExecutorConfig()
        self._sleep = sleep
        self.runner = CaseRunner(self.config, sleep=sleep)

    # ------------------------------------------------------------------ #
    def shard_cases(self) -> "list[SweepCase]":
        """This shard's slice of the deterministic case list."""
        cfg = self.config
        return [
            c for i, c in enumerate(self.cases) if i % cfg.shards == cfg.shard_index
        ]

    def run(self) -> ExecutorReport:
        """Execute the shard: skip, attempt/retry, journal, quarantine.

        A failing case never aborts the sweep — it retries with
        exponential backoff and lands in quarantine (journaled with its
        failure log) once retries are exhausted.  ``KeyboardInterrupt``
        does propagate; the journal keeps every case completed so far,
        which is exactly what ``resume`` picks up.  With
        ``config.workers > 1`` the shard's cases run on the work-stealing
        pool instead of the serial loop; the journal content is identical
        (only line order varies with the schedule).
        """
        cfg = self.config
        # The process-global registry accumulates across the whole sweep
        # with per-case labels (dumped by ``repro metrics`` / scraped as
        # Prometheus text).
        metrics = get_metrics()
        done = (
            self.store.load().completed()
            if cfg.resume and self.store.exists()
            else set()
        )
        report = ExecutorReport(shards=cfg.shards, shard_index=cfg.shard_index)
        pending = []
        for case in self.shard_cases():
            if case.fingerprint in done:
                report.skipped.append(case.fingerprint)
                metrics.inc(
                    "exec.skipped", kernel=case.kernel, fmt=case.fmt,
                    platform=case.platform,
                )
                continue
            pending.append(case)
        if cfg.workers > 1 and len(pending) > 1:
            self._run_stealing(pending, report)
        else:
            for case in pending:
                fold_outcome(report, self.runner.run_case(case, self.store))
        return report

    def backoff_s(self, attempt: int) -> float:
        """Exponential backoff before re-attempt ``attempt + 1``."""
        return self.runner.backoff_s(attempt)

    # ------------------------------------------------------------------ #
    def _run_stealing(self, pending: "list[SweepCase]", report: ExecutorReport):
        """Drive the pending cases through the work-stealing pool."""
        from repro.serve.scheduler import StealScheduler

        cfg = self.config
        store_lock = threading.Lock()
        report_lock = threading.Lock()

        def run_case(case):
            outcome = self.runner.run_case(case, self.store, store_lock=store_lock)
            with report_lock:
                fold_outcome(report, outcome)
            return outcome.completed

        scheduler = StealScheduler(
            run_case,
            workers=min(cfg.workers, len(pending)),
            steal_seed=cfg.steal_seed,
        )
        scheduler.start()
        try:
            scheduler.submit(pending).wait()
        finally:
            scheduler.shutdown()
        report.steals = scheduler.steals


def fold_outcome(report: ExecutorReport, outcome: CaseOutcome) -> None:
    """Aggregate one case's terminal verdict into an executor report."""
    report.retries += outcome.retries
    report.timeouts += outcome.timeouts
    report.crashes += outcome.crashes
    if outcome.completed:
        report.completed.append(outcome.fingerprint)
    else:
        report.quarantined.append(outcome.fingerprint)
        report.failures[outcome.fingerprint] = outcome.failures


# --------------------------------------------------------------------- #
# Sweep assembly helpers (CLI entry points)
# --------------------------------------------------------------------- #
def dataset_case_specs(
    dataset: str = "both",
    scale: float = 1000.0,
    seed: int = 0,
    keys=None,
) -> dict:
    """Self-describing tensor specs for the paper datasets.

    Mirrors :func:`repro.bench.experiments._dataset` but *describes* the
    tensors instead of materializing them, so workers regenerate each one
    on demand.  Generation seeds derive from ``(seed, registry key)``,
    never from enumeration position.
    """
    if dataset not in ("real", "synthetic", "both"):
        raise ExecutorError(f"unknown dataset kind {dataset!r}")
    wanted = set(keys) if keys else None
    specs: dict = {}
    if dataset in ("real", "both"):
        from repro.datasets.registry import REAL_TENSORS

        for info in REAL_TENSORS:
            if wanted and info.key not in wanted and info.name not in wanted:
                continue
            specs[info.name] = {
                "kind": "real",
                "key": info.key,
                "scale": scale,
                "seed": derive_case_seed(seed, "tensor", info.key),
            }
    if dataset in ("synthetic", "both"):
        from repro.generate.registry import SYNTHETIC_TENSORS

        for cfg in SYNTHETIC_TENSORS:
            if wanted and cfg.key not in wanted and cfg.name not in wanted:
                continue
            specs[cfg.name] = {
                "kind": "synthetic",
                "key": cfg.name,
                "scale": scale,
                "seed": derive_case_seed(seed, "tensor", cfg.key),
            }
    if wanted and not specs:
        raise ExecutorError(f"no tensors matched keys {sorted(wanted)}")
    return specs


def build_sweep_cases(
    dataset: str = "both",
    scale: float = 1000.0,
    seed: int = 0,
    keys=None,
    platforms=("Bluesky",),
    config: "RunnerConfig | None" = None,
) -> "list[SweepCase]":
    """Enumerate the full sweep for the CLI (and the CI smoke)."""
    if config is None:
        config = RunnerConfig(measure_host=False, cache_scale=scale, seed=seed)
    specs = dataset_case_specs(dataset, scale=scale, seed=seed, keys=keys)
    return enumerate_cases(specs, config, platforms=platforms)
