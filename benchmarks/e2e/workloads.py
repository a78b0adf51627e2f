"""The five end-to-end workloads; ``run.py`` runs each in a fresh process.

    python3 benchmarks/e2e/workloads.py --workload NAME --seed N \\
        --seconds S --trace 0|1 --run-dir DIR --result PATH

Every workload makes its inputs from the seed, measures for about
``seconds``, checks its outputs against an untimed oracle, and returns
raw metric values by name (units and bounds live in ``BENCHMARK.json``).

An untraced run reports the end-to-end metrics.  A traced run splits the
time: an untraced half, then a half with the layer wrappers of
``layers.py`` and a repro tracer installed.  It reports the per-layer
numbers of the traced half and the overhead between the two halves.

Workloads drive the suite only through its public functions, and leave
``measure_host``, ``tier``, ``privatize``, ``eviction`` and ``method`` at
their defaults, so deleting those knobs needs no edit here.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import repro.bench.executor as executor_mod
import repro.ingest as ingest_mod
import repro.methods.cpd as cpd_mod
import repro.serve.protocol as protocol_mod
from repro.bench.executor import (
    CaseRunner,
    ExecutorConfig,
    SuiteExecutor,
    build_sweep_cases,
    materialize_tensor,
)
from repro.bench.runner import SuiteRunner, SweepCase, TensorBundle
from repro.bench.runstore import RunStore
from repro.generate import powerlaw_tensor
from repro.ingest import IngestBench, IngestConfig, WindowBlocker, verify_window_state
from repro.metrics.stats import percentiles
from repro.obs import Tracer, load_chrome, merge_traces, save_chrome
from repro.parallel import OpenMPBackend, SequentialBackend
from repro.roofline import get_platform
from repro.roofline.oi import cost_for, extract_features
from repro.serve.client import ServeClient, ServeError, wait_for_socket
from repro.sptensor.hicoo import HiCOOTensor
from repro.stream import SlidingWindowTensor

from layers import LayerClock, budget

#: Load is sized for a 2-CPU host: 2 workers, threads or connections.
WORKERS = 2

#: Tolerance between final ALS fits (formats and backends sum in
#: different orders, so fits agree to rounding, not bit for bit).
FIT_TOL = 1e-9


@dataclass
class Outcome:
    """Raw metric values of one run, the work it attempted, its checks."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    #: Thread count behind each scaling metric (``run.py`` refuses to
    #: label it scaling when the host has fewer CPUs).
    threads: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["ok"] for c in self.checks)


def median(values) -> float:
    return percentiles(values, (50,))["p50"]


def canonical(obj) -> str:
    """Key-sorted JSON text: equal text means bit-equal records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def probe_s(code: str, n: int = 5) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        # No timeout: waiting with one polls every 50 ms, which would
        # quantize the measurement (run.py bounds the whole run).
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def write_trace(trace, run_dir) -> None:
    """One Chrome trace per workload, adopted worker traces included."""
    save_chrome(merge_traces(trace), os.path.join(run_dir, "trace.json"))


# --------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------- #
SPAWN_TENSORS = (
    "regS", "regS4d", "irrS", "irrS4d", "irr2S4d", "nips4d", "uber4d", "crime4d",
)


class SweepOracle:
    """Reference records: each tensor materialized once, every case run
    inline through ``SuiteRunner.run_kernel`` on the shared bundle."""

    def __init__(self):
        self._bundles: dict = {}
        self._records: dict = {}
        self.cases = 0
        self.wall_s = 0.0

    def record(self, case: SweepCase) -> str:
        """The canonical JSON of the case's reference record."""
        if case.fingerprint not in self._records:
            t0 = time.perf_counter()
            config = case.runner_config()
            key = (case.tensor, case.tensor_spec, config.seed, config.block_size, config.rank)
            bundle = self._bundles.get(key)
            if bundle is None:
                tensor = materialize_tensor(case.tensor_spec)
                bundle = self._bundles[key] = TensorBundle.prepare(case.tensor, tensor, config)
            runner = SuiteRunner(get_platform(case.platform), config)
            rec = runner.run_kernel(bundle, case.kernel, case.fmt)
            self._records[case.fingerprint] = canonical(rec.to_dict())
            self.cases += 1
            self.wall_s += time.perf_counter() - t0
        return self._records[case.fingerprint]


@dataclass
class SweepPhase:
    """Every executor round of one measured phase."""

    wall_s: float = 0.0
    #: ``(cases, journal)`` per round; a journal is ``[(bytes, payload)]``.
    rounds: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    walls: list = field(default_factory=list)

    @property
    def cases(self) -> list:
        return [c for cases, _ in self.rounds for c in cases]

    def lines(self, kind: str) -> list:
        return [
            (n, line) for _, journal in self.rounds for n, line in journal
            if line.get("kind") == kind
        ]

    @property
    def completed(self) -> int:
        return sum(len(r.completed) for r in self.reports)

    @property
    def cases_per_s(self) -> float:
        """Median over rounds: a slow spell of the shared host moves a
        median of rounds less than the whole phase's total."""
        return median(len(r.completed) / w for r, w in zip(self.reports, self.walls))


def read_journal(path) -> list:
    """``[(line bytes, payload)]`` of a run-store file."""
    with open(path, "rb") as f:
        return [(len(raw), json.loads(raw)) for raw in f.read().splitlines() if raw.strip()]


def interleave(cases: list) -> list:
    """Round-robin over (platform, tensor) groups, so any prefix of the
    case list touches every tensor and platform of the sweep."""
    groups: dict = {}
    for case in cases:
        groups.setdefault((case.platform, case.tensor), []).append(case)
    return [
        case for column in itertools.zip_longest(*groups.values())
        for case in column if case is not None
    ]


def sweep_phase(cases, config, seconds, store_dir, round_size) -> SweepPhase:
    """Run executor rounds over successive slices of ``cases`` (cycling)
    until ``seconds`` of executor wall time have passed."""
    os.makedirs(store_dir, exist_ok=True)
    phase = SweepPhase()
    start = 0
    for r in itertools.count():
        chunk = cases[start:start + round_size]
        start = 0 if start + round_size >= len(cases) else start + round_size
        store = RunStore(os.path.join(store_dir, f"round{r}.jsonl"))
        t0 = time.perf_counter()
        report = SuiteExecutor(chunk, store, config).run()
        phase.walls.append(time.perf_counter() - t0)
        phase.wall_s += phase.walls[-1]
        phase.reports.append(report)
        phase.rounds.append((chunk, read_journal(store.path)))
        if phase.wall_s >= seconds:
            return phase


def check_sweep(phase: SweepPhase, oracle: SweepOracle) -> "tuple[bool, str]":
    """One record per case in each round's journal, none quarantined,
    every record equal to the oracle's."""
    for cases, journal in phase.rounds:
        lines = [line for _, line in journal if line.get("kind") != "header"]
        bad = [line["fingerprint"] for line in lines if line.get("kind") != "record"]
        if bad:
            return False, f"quarantined: {bad}"
        got = sorted(line["fingerprint"] for line in lines)
        if got != sorted(c.fingerprint for c in cases):
            return False, "journal does not hold exactly one record per case"
        by_fp = {c.fingerprint: c for c in cases}
        for line in lines:
            if canonical(line["record"]) != oracle.record(by_fp[line["fingerprint"]]):
                return False, f"record {line['fingerprint']} differs from the oracle"
    return True, f"{len(phase.cases)} records equal the oracle"


def _sweep(seed, seconds, trace, run_dir, *, dataset, tensors, platforms,
           config, round_size) -> Outcome:
    out = Outcome()
    cases = interleave(
        build_sweep_cases(dataset=dataset, keys=list(tensors), seed=seed, platforms=platforms)
    )
    oracle = SweepOracle()
    # Untimed warm-up: lazy imports and first calls of every tensor and
    # platform happen here, not in the first measured round.
    for case in cases[:round_size]:
        oracle.record(case)
    if not trace:
        store = os.path.join(run_dir, "setup.jsonl")
        out.metrics["setup_s"] = probe_s(
            "from repro.bench.executor import build_sweep_cases\n"
            "from repro.bench.runstore import RunStore\n"
            f"build_sweep_cases(dataset={dataset!r}, keys={list(tensors)!r}, "
            f"seed={seed!r}, platforms={tuple(platforms)!r})\n"
            f"RunStore({store!r}).load()\n"
        )
        phase = sweep_phase(cases, config, seconds, os.path.join(run_dir, "stores"), round_size)
        phases = [phase]
        out.metrics["throughput_per_s"] = phase.cases_per_s
        out.metrics["latency_p50_ms"] = 1e3 * median(
            line["elapsed_s"] for _, line in phase.lines("record")
        )
    else:
        plain = sweep_phase(cases, config, seconds / 2, os.path.join(run_dir, "plain"), round_size)
        tracer = Tracer(meta={"workload": "sweep", "seed": seed})
        with LayerClock(tracer) as clock:
            clock.wrap(executor_mod, "materialize_tensor", "generate")
            clock.wrap(TensorBundle, "prepare", "sptensor")
            clock.wrap(
                SuiteRunner, "run_kernel",
                lambda runner, *a, **k: "gpu" if runner.platform.is_gpu else "cpumodel",
            )
            clock.wrap(RunStore, "append_record", "runstore")
            clock.wrap(CaseRunner, "attempt", "attempt")
            phase = sweep_phase(cases, config, seconds / 2, os.path.join(run_dir, "traced"), round_size)
        phases = [plain, phase]
        frozen = tracer.freeze()
        write_trace(frozen, run_dir)
        out.metrics.update(sweep_layers(phase, clock, frozen, config.workers))
        out.metrics["obs.trace_overhead"] = plain.cases_per_s / phase.cases_per_s - 1.0
    for checked in phases:
        ok, detail = check_sweep(checked, oracle)
        out.check("records equal the inline oracle", ok, detail)
        out.attempted += len(checked.cases)
        out.failed += sum(len(r.quarantined) for r in checked.reports)
    if trace:
        # Executor time per case over the oracle's, which materializes
        # each tensor once instead of once per case.
        out.metrics["executor.oracle_ratio"] = (
            config.workers * phase.wall_s / phase.completed
        ) / (oracle.wall_s / oracle.cases)
    return out


def sweep_layers(phase: SweepPhase, clock: LayerClock, trace, workers: int) -> dict:
    """Per-layer numbers of a traced sweep phase."""
    t = clock.totals
    # Process isolation: the kernel layer runs in workers, whose spans
    # come home in their verdicts; their materialization stays invisible
    # and is charged to the executor.
    in_workers = sum(
        e.duration_s
        for child in trace.children
        for e in child.spans()
        if e.name.startswith("run.")
    )
    inside = t["generate"] + t["sptensor"] + t["cpumodel"] + t["gpu"] + in_workers
    capacity = workers * phase.wall_s
    metrics = budget(
        {
            "generate": t["generate"],
            "sptensor": t["sptensor"],
            "cpumodel": t["cpumodel"] + in_workers,
            "gpu": t["gpu"],
            "runstore": t["runstore"],
            "executor": t["attempt"] - inside,
        },
        capacity,
    )
    records = phase.lines("record")
    metrics.update({
        "scheduler.busy_frac": (t["attempt"] + t["runstore"]) / capacity,
        "scheduler.steals": sum(r.steals for r in phase.reports),
        "generate.calls": clock.calls["generate"],
        "generate.calls_per_case": clock.calls["generate"] / len(phase.cases),
        "executor.retries": sum(r.retries for r in phase.reports),
        "executor.quarantined": sum(len(r.quarantined) for r in phase.reports),
        "executor.timeouts": sum(r.timeouts for r in phase.reports),
        "executor.crashes": sum(r.crashes for r in phase.reports),
        "runstore.bytes_per_record": sum(n for n, _ in records) / len(records),
    })
    return metrics


def sweep_spawn(seed, seconds, trace, run_dir, tensors=SPAWN_TENSORS, round_size=8) -> Outcome:
    """Process-isolated sweep of tiny tensors: worker spawn, import and
    the scheduler do most of the work, tensor generation almost none."""
    return _sweep(
        seed, seconds, trace, run_dir, dataset="both", tensors=tensors,
        platforms=("Bluesky",), round_size=round_size,
        config=ExecutorConfig(isolation="process", workers=WORKERS),
    )


def sweep_materialize(seed, seconds, trace, run_dir, dataset="real",
                      tensors=("choa", "vast"), platforms=("Bluesky", "DGX-1V"),
                      round_size=4) -> Outcome:
    """Inline serial sweep: every case rematerializes its tensor, so
    generation and tensor preparation dominate and spawn costs nothing."""
    return _sweep(
        seed, seconds, trace, run_dir, dataset=dataset, tensors=tensors,
        platforms=platforms, round_size=round_size,
        config=ExecutorConfig(isolation="inline", workers=1),
    )


# --------------------------------------------------------------------- #
# Serve
# --------------------------------------------------------------------- #
SERVE_TENSORS = ("regM", "irrM")
#: One plan cycle of a connection: 3 misses (a new seed from the
#: connection's own range) and 7 hits (a key it already got).
MIXED_PATTERN = "MHHMHHHMHH"
#: Plan cycles per connection per second of measurement: with two
#: concurrent inline misses a cycle takes about 4.6 s on a 2-CPU host, so
#: the mixed phase lasts about 0.6 of the run; warm hits fill the rest.
CYCLES_PER_S = 0.13


class Daemon:
    """One ``repro serve`` subprocess (inline isolation, 2 workers)."""

    def __init__(self, run_dir, tag: str, trace_dir=None):
        # Relative to the working directory: an AF_UNIX path must stay
        # under 108 bytes however deep the checkout is.
        self.socket = os.path.relpath(os.path.join(run_dir, f"{tag}.sock"))
        self.store = os.path.join(run_dir, f"{tag}.jsonl")
        cmd = [
            sys.executable, "-m", "repro", "serve", "--socket", self.socket,
            "--store", self.store, "--workers", str(WORKERS),
        ]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        self._log = open(os.path.join(run_dir, f"{tag}.log"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=self._log)
        try:
            wait_for_socket(self.socket, timeout_s=60, interval_s=0.005)
        except BaseException:
            self.stop()
            raise
        #: Spawn to first accepted connection.
        self.ready_s = time.perf_counter() - t0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def request(self, op: str, params=None) -> dict:
        with ServeClient(self.socket, timeout_s=120) as client:
            return client.request(op, params)

    def warm_up(self, tensor: str, seed: int) -> None:
        """One untimed miss, so lazy imports in the daemon happen before
        timing; its seed lies outside every connection's range."""
        self.request("sweep", sweep_params((tensor, seed * 10_000 + 9_999)))


def mixed_plan(seed: int, conn: int, tensors, cycles: int) -> list:
    """``[(key, is_miss)]`` of one connection; a key is (tensor, seed).

    Hits repeat a key this connection already got, so the hit/miss split
    does not depend on how the two connections interleave.
    """
    rng = random.Random(f"{seed}/{conn}")
    got, plan = [], []
    for kind in MIXED_PATTERN * cycles:
        if kind == "M":
            n = len(got)
            got.append((tensors[n % len(tensors)], seed * 10_000 + conn * 1_000 + n))
            plan.append((got[-1], True))
        else:
            plan.append((rng.choice(got), False))
    return plan


def sweep_params(key) -> dict:
    return {"dataset": "synthetic", "tensors": [key[0]], "seed": key[1]}


@dataclass
class Answer:
    """What the benchmark keeps of one served request: a digest of the
    records rather than the records, so memory does not grow with the
    number of hits (planned misses keep theirs for the oracle check)."""

    key: tuple
    miss: bool
    seconds: float
    #: ``perf_counter`` when the answer arrived.
    done: float = 0.0
    error: "str | None" = None
    total: int = 0
    hits: int = 0
    executed: int = 0
    quarantined: int = 0
    nrecords: int = 0
    digest: str = ""
    response: "dict | None" = None

    @classmethod
    def of(cls, key, miss, seconds, resp) -> "Answer":
        done = time.perf_counter()
        if isinstance(resp, Exception):
            return cls(key, miss, seconds, done, error=f"{type(resp).__name__}: {resp}")
        return cls(
            key, miss, seconds, done, total=resp["total"], hits=resp["hits"],
            executed=resp["executed"], quarantined=len(resp["quarantined"]),
            nrecords=len(resp["records"]),
            digest=hashlib.sha256(canonical(resp["records"]).encode()).hexdigest(),
            response=resp if miss else None,
        )


def run_connections(socket_path, plans, tracer=None, deadline=None) -> "tuple[float, list]":
    """Closed loop: one thread and connection per plan, each sending its
    next request when the previous one is answered.  With ``deadline``
    the plan repeats until then.  Returns (wall, [answers] per plan)."""
    logs = [[] for _ in plans]
    errors = []

    def drive(i):
        try:
            with ServeClient(socket_path, timeout_s=120) as client:
                for key, miss in itertools.cycle(plans[i]) if deadline else plans[i]:
                    if deadline and time.perf_counter() >= deadline:
                        return
                    t0 = time.perf_counter()
                    try:
                        if tracer is None:
                            resp = client.request("sweep", sweep_params(key))
                        else:
                            with tracer.span("client.sweep", cat="request", key=str(key)):
                                resp = client.request("sweep", sweep_params(key))
                    except ServeError as exc:
                        resp = exc
                    logs[i].append(Answer.of(key, miss, time.perf_counter() - t0, resp))
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(plans))]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall, logs


def check_served(logs) -> "tuple[bool, str, dict]":
    """Every answer complete and unquarantined; every later answer for a
    key equal to its first (miss) answer and served from the cache.
    Returns (ok, detail, first answer by key)."""
    first: dict = {}
    for log in logs:
        for a in log:
            if a.error is not None:
                return False, f"{a.key}: {a.error}", first
            if a.quarantined or a.nrecords != a.total:
                return False, f"{a.key}: incomplete answer", first
            if a.key not in first:
                if not a.miss or a.executed != a.total:
                    return False, f"{a.key}: first request was not executed", first
                first[a.key] = a
            elif a.digest != first[a.key].digest or a.hits != a.total:
                return False, f"{a.key}: hit differs from its miss", first
    return True, f"{sum(map(len, logs))} answers consistent", first


def check_miss_oracle(store_path, resp) -> "tuple[bool, str]":
    """A miss's records equal the inline oracle of its journaled cases."""
    journal = RunStore(store_path).load().records
    oracle = SweepOracle()
    for fp, record in zip(resp["fingerprints"], resp["records"]):
        if canonical(record) != oracle.record(SweepCase.from_dict(journal[fp]["case"])):
            return False, f"miss record {fp} differs from the oracle"
    return True, f"{len(resp['records'])} records equal the oracle"


def windowed_p50(answers, width_s: float = 0.5) -> float:
    """Median over ``width_s`` windows of each window's median latency."""
    t0 = min(a.done for a in answers)
    windows: dict = {}
    for a in answers:
        windows.setdefault(int((a.done - t0) // width_s), []).append(a.seconds)
    return median(median(v) for v in windows.values())


def warm_plans(plans) -> list:
    """Each connection replays the keys of its planned misses."""
    return [[(key, False) for key, miss in plan if miss] for plan in plans]


def serve_mixed(seed, seconds, trace, run_dir, tensors=SERVE_TENSORS, cycles=None) -> Outcome:
    """``repro serve`` with two closed-loop connections: a mixed phase of
    cache hits and misses, then a warm phase of hits only."""
    out = Outcome()
    cycles = cycles or max(1, round(CYCLES_PER_S * seconds / (2 if trace else 1)))
    plans = [mixed_plan(seed, c, tensors, cycles) for c in range(WORKERS)]
    daemons = []
    try:
        if not trace:
            # Spawn-to-ready, five times; the last daemon serves the run.
            for i in range(5):
                if daemons:
                    daemons[-1].stop()
                daemons.append(Daemon(run_dir, f"d{i}"))
            out.metrics["setup_s"] = median(d.ready_s for d in daemons)
            daemon = daemons[-1]
            daemon.warm_up(tensors[0], seed)
            mixed_wall, logs = run_connections(daemon.socket, plans)
            _, warm = run_connections(
                daemon.socket, warm_plans(plans), deadline=time.perf_counter() + 0.4 * seconds
            )
            out.metrics["throughput_per_s"] = sum(map(len, logs)) / mixed_wall
            out.metrics["latency_p50_ms"] = 1e3 * windowed_p50([a for log in warm for a in log])
            runs = [(daemon, logs + warm)]
        else:
            plain = Daemon(run_dir, "plain")
            daemons.append(plain)
            plain.warm_up(tensors[0], seed)
            plain_wall, plain_logs = run_connections(plain.socket, plans)
            plain.stop()
            trace_dir = os.path.join(run_dir, "daemon-traces")
            daemon = Daemon(run_dir, "traced", trace_dir=trace_dir)
            daemons.append(daemon)
            daemon.warm_up(tensors[0], seed)
            tracer = Tracer(meta={"workload": "serve-mixed", "seed": seed})
            with LayerClock(tracer) as clock:
                clock.wrap(protocol_mod, "decode", "decode", size=len)
                mixed_wall, logs = run_connections(daemon.socket, plans, tracer)
                health, status = daemon.request("health"), daemon.request("status")
                clock.reset()
                _, warm = run_connections(
                    daemon.socket, warm_plans(plans), tracer,
                    deadline=time.perf_counter() + 0.2 * seconds,
                )
            write_trace(tracer.freeze(), run_dir)
            n_mixed = sum(map(len, logs))
            out.metrics.update(
                serve_layers(daemon, trace_dir, n_mixed, mixed_wall, health, status, warm, clock)
            )
            out.metrics["obs.trace_overhead"] = (
                sum(map(len, plain_logs)) / plain_wall / (n_mixed / mixed_wall) - 1.0
            )
            runs = [(plain, plain_logs), (daemon, logs + warm)]
        for d, served in runs:
            ok, detail, first = check_served(served)
            out.check("hits equal their miss", ok, detail)
            ok, detail = (
                check_miss_oracle(d.store, next(iter(first.values())).response) if first
                else (False, "no miss answered")
            )
            out.check("a miss equals the inline oracle", ok, detail)
            out.attempted += sum(map(len, served))
            out.failed += sum(a.error is not None or a.quarantined > 0 for log in served for a in log)
    finally:
        for d in daemons:
            d.stop()
    return out


def serve_layers(daemon, trace_dir, n_mixed, mixed_wall, health, status, warm, clock) -> dict:
    """Per-layer numbers of a traced serve run: the daemon's own request
    traces for the mixed phase, its counters, and client-side decoding
    of warm-phase hits."""
    # Trace files are named ``req-<seq>-...`` by request; seq 1 is the
    # warm-up, then come the mixed phase's requests.  The daemon writes a
    # request's trace after answering it, so wait for the last ones.
    wanted = range(2, 2 + n_mixed)
    deadline = time.monotonic() + 30
    while True:
        names = [n for n in os.listdir(trace_dir) if int(n.split("-")[1]) in wanted]
        if len(names) == n_mixed or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    case_s = kernel_s = 0.0
    for name in names:
        for e in load_chrome(os.path.join(trace_dir, name))["traceEvents"]:
            if e.get("ph") != "X":
                continue
            if e["name"] == "case":
                case_s += e["dur"] / 1e6
            elif e["name"].startswith("run."):
                kernel_s += e["dur"] / 1e6
    capacity = WORKERS * mixed_wall
    metrics = budget({"executor": case_s - kernel_s, "cpumodel": kernel_s}, capacity)
    records = [n for n, line in read_journal(daemon.store) if line.get("kind") == "record"]
    counters = status["counters"]
    metrics.update({
        "scheduler.busy_frac": case_s / capacity,
        "scheduler.steals": health["steals"],
        "serve.cache_hit_ratio": health["cache_hit_rate"],
        "serve.coalesced": counters.get("serve.coalesced", 0.0),
        "serve.executed": counters.get("serve.executed", 0.0),
        "protocol.response_bytes_p50": median(clock.sizes["decode"]),
        "protocol.decode_share": median(clock.samples["decode"]) / median(
            a.seconds for log in warm for a in log
        ),
        "runstore.bytes_per_record": sum(records) / len(records),
    })
    return metrics


# --------------------------------------------------------------------- #
# CP-ALS
# --------------------------------------------------------------------- #
def check_fits(rounds, reference: float) -> "tuple[bool, str]":
    """COO and HiCOO final fits agree with the sequential COO reference."""
    for i, r in enumerate(rounds):
        for fmt in ("coo", "hicoo"):
            if not abs(r[fmt][1] - reference) <= FIT_TOL:
                return False, f"round {i} {fmt} fit {r[fmt][1]!r} != reference {reference!r}"
    return True, f"{2 * len(rounds)} fits within {FIT_TOL:g} of {reference:.12f}"


def als_rounds(tensors, rank, n_iters, seed, backend, seconds) -> "tuple[float, list]":
    """Interleaved COO/HiCOO ``cp_als`` calls (the first format alternates)
    until ``seconds`` have passed.  Returns (wall, rounds) with each round
    ``{fmt: (call seconds, final fit)}``."""
    rounds = []
    t_start = time.perf_counter()
    for r in itertools.count():
        row = {}
        for fmt in ("coo", "hicoo") if r % 2 == 0 else ("hicoo", "coo"):
            t0 = time.perf_counter()
            res = cpd_mod.cp_als(tensors[fmt], rank, n_iters=n_iters, tol=0, seed=seed, backend=backend)
            row[fmt] = (time.perf_counter() - t0, float(res.fits[-1]))
        rounds.append(row)
        wall = time.perf_counter() - t_start
        if wall >= seconds:
            return wall, rounds


def round_seconds(rounds) -> list:
    return [row["coo"][0] + row["hicoo"][0] for row in rounds]


def cpd_als(seed, seconds, trace, run_dir, shape=(8000, 8000, 64), nnz=100_000,
            rank=16, n_iters=10) -> Outcome:
    """CP-ALS on a power-law tensor with COO and HiCOO Mttkrp on a
    2-thread backend; Mttkrp dominates each iteration."""
    out = Outcome()
    backend = OpenMPBackend(nthreads=WORKERS)
    try:
        setups = []
        for _ in range(1 if trace else 3):
            t0 = time.perf_counter()
            coo = powerlaw_tensor(shape, nnz, dense_modes=(2,), seed=seed)
            hicoo = HiCOOTensor.from_coo(coo)
            for x in (coo, hicoo):
                cpd_mod.cp_als(x, rank, n_iters=1, tol=0, seed=seed, backend=backend)
            setups.append(time.perf_counter() - t0)
        tensors = {"coo": coo, "hicoo": hicoo}

        def reference() -> float:
            res = cpd_mod.cp_als(coo, rank, n_iters=n_iters, tol=0, seed=seed, backend=SequentialBackend())
            return float(res.fits[-1])

        ref = reference()
        if not trace:
            out.metrics["setup_s"] = median(setups)
            _, rounds = als_rounds(tensors, rank, n_iters, seed, backend, seconds)
            phases = [rounds]
            # One round is one COO and one HiCOO call.
            round_s = round_seconds(rounds)
            out.metrics["throughput_per_s"] = median(2 * n_iters / s for s in round_s)
            out.metrics["latency_p50_ms"] = 1e3 * median(s / (2 * n_iters) for s in round_s)
        else:
            _, plain = als_rounds(tensors, rank, n_iters, seed, backend, seconds / 2)
            tracer = Tracer(meta={"workload": "cpd-als", "seed": seed})
            with LayerClock(tracer) as clock:
                clock.wrap(cpd_mod, "coo_mttkrp", "mttkrp.coo")
                clock.wrap(cpd_mod, "hicoo_mttkrp", "mttkrp.hicoo")
                reference()
                seq = list(clock.samples["mttkrp.coo"])
                clock.reset()
                wall, rounds = als_rounds(tensors, rank, n_iters, seed, backend, seconds / 2)
            write_trace(tracer.freeze(), run_dir)
            phases = [plain, rounds]
            out.metrics.update(cpd_layers(coo, hicoo, rank, wall, rounds, clock, seq))
            out.metrics["obs.trace_overhead"] = (
                median(round_seconds(rounds)) / median(round_seconds(plain)) - 1.0
            )
            out.threads["parallel.speedup.coo"] = backend.nthreads
    finally:
        backend.shutdown()
    for rounds in phases:
        ok, detail = check_fits(rounds, ref)
        out.check("COO and HiCOO fits match the sequential COO run", ok, detail)
        out.attempted += 2 * len(rounds)
        out.failed += sum(
            not abs(row[fmt][1] - ref) <= FIT_TOL for row in rounds for fmt in row
        )
    return out


def cpd_layers(coo, hicoo, rank, wall, rounds, clock, seq) -> dict:
    """Per-layer numbers of a traced CP-ALS phase."""
    t, s = clock.totals, clock.samples
    mttkrp = t["mttkrp.coo"] + t["mttkrp.hicoo"]
    calls = sum(row[fmt][0] for row in rounds for fmt in row)
    metrics = budget({"kernels": mttkrp, "methods": calls - mttkrp}, wall)
    cost = cost_for(
        extract_features(coo, "cpd", hicoo.block_size, hicoo), "mttkrp", "coo", rank
    )
    gflops = lambda samples: cost.flops / median(samples) / 1e9  # noqa: E731
    metrics.update({
        "kernels.mttkrp_flops": cost.flops,
        "kernels.mttkrp_bytes_computed": cost.bytes,
        "kernels.mttkrp_gflops.coo": gflops(s["mttkrp.coo"]),
        "kernels.mttkrp_gflops.hicoo": gflops(s["mttkrp.hicoo"]),
        "kernels.mttkrp_gflops.coo_seq": gflops(seq),
        "parallel.speedup.coo": median(seq) / median(s["mttkrp.coo"]),
    })
    return metrics


# --------------------------------------------------------------------- #
# Ingest
# --------------------------------------------------------------------- #
def ingest_phase(seed, seconds, events, first) -> "tuple[list, list]":
    """Back-to-back ``IngestBench`` runs (seeds ``seed*1000 + i``) until
    ``seconds`` of run time have passed.  Returns (walls, results)."""
    walls, results = [], []
    for i in itertools.count(first):
        bench = IngestBench(IngestConfig(events=events, workers=WORKERS, seed=seed * 1000 + i))
        t0 = time.perf_counter()
        results.append(bench.run())
        walls.append(time.perf_counter() - t0)
        if sum(walls) >= seconds:
            return walls, results


def events_per_s(walls, results) -> float:
    """Median over runs of events over the outside wall of ``run()``."""
    return median(r.events / w for r, w in zip(results, walls))


def check_windows(results) -> "tuple[bool, str]":
    for res in results:
        ok, detail = verify_window_state(res)
        if not ok:
            return False, f"seed {res.config.seed}: {detail}"
    return True, f"{len(results)} windows bit-exact"


def ingest_window(seed, seconds, trace, run_dir, events=1_000_000) -> Outcome:
    """Live ingestion into a sliding window with 2 workers while kernel
    queries read the window concurrently."""
    out = Outcome()
    # Untimed warm-up run, seeded outside the measured runs' seeds.
    IngestBench(IngestConfig(events=events // 20, workers=WORKERS, seed=seed * 1000 + 999)).run()
    if not trace:
        out.metrics["setup_s"] = probe_s(
            "from repro.ingest import IngestBench, IngestConfig\n"
            f"IngestBench(IngestConfig(events={events}, workers={WORKERS}, seed={seed}))\n"
        )
        walls, results = ingest_phase(seed, seconds, events, 0)
        phases = [results]
        out.metrics["throughput_per_s"] = events_per_s(walls, results)
        out.metrics["latency_p50_ms"] = 1e3 * median(r.latency_s["p50"] for r in results)
    else:
        plain_walls, plain = ingest_phase(seed, seconds / 2, events, 0)
        tracer = Tracer(meta={"workload": "ingest-window", "seed": seed})
        with LayerClock(tracer) as clock:
            clock.wrap_generator(ingest_mod, "powerlaw_stream", "generate")
            clock.wrap(SlidingWindowTensor, "push", "stream")
            clock.wrap(WindowBlocker, "decompose", "ingest")
            clock.wrap(WindowBlocker, "snapshot", "ingest")
            for kernel in ("coo_ttv", "hicoo_ttv", "coo_mttkrp", "hicoo_mttkrp"):
                clock.wrap(ingest_mod, kernel, "kernels")
            walls, results = ingest_phase(seed, seconds / 2, events, len(plain))
        write_trace(tracer.freeze(), run_dir)
        phases = [plain, results]
        out.metrics.update(ingest_layers(sum(walls), results, clock))
        out.metrics["obs.trace_overhead"] = (
            events_per_s(plain_walls, plain) / events_per_s(walls, results) - 1.0
        )
    for results in phases:
        ok, detail = check_windows(results)
        out.check("final windows equal a serial replay", ok, detail)
        out.attempted += sum(r.batches + r.queries + r.query_failures for r in results)
        out.failed += sum(r.query_failures for r in results)
    return out


def ingest_layers(wall, results, clock) -> dict:
    """Per-layer numbers of a traced ingest phase.  Capacity counts the
    ingest workers, the generator thread and the querying main thread."""
    t = clock.totals
    metrics = budget(
        {layer: t[layer] for layer in ("generate", "stream", "ingest", "kernels")},
        (WORKERS + 2) * wall,
    )
    reblocks = sum(r.reblocks for r in results)
    memo = sum(r.reblock_cache_hits for r in results)
    metrics.update({
        "ingest.backpressure_stalls": sum(r.backpressure_stalls for r in results),
        "ingest.queue_max_depth": max(r.queue_max_depth for r in results),
        "stream.evictions": sum(r.evictions for r in results),
        "ingest.reblock_cache_hit_ratio": memo / (reblocks + memo),
        "ingest.query_failures": sum(r.query_failures for r in results),
        "ingest.apply_tail_ratio": median(r.latency_s["p99"] / r.latency_s["p50"] for r in results),
    })
    return metrics


WORKLOADS = {
    "sweep-spawn": sweep_spawn,
    "sweep-materialize": sweep_materialize,
    "serve-mixed": serve_mixed,
    "cpd-als": cpd_als,
    "ingest-window": ingest_window,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True, help="scratch directory (removed)")
    ap.add_argument("--result", required=True, help="write the raw result JSON here")
    args = ap.parse_args(argv)
    os.makedirs(args.run_dir, exist_ok=True)
    trace_path = os.path.join(args.run_dir, "trace.json")
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), args.run_dir)
        if args.trace:
            outcome.metrics["worker.import_s"] = probe_s("import repro.bench.worker")
        else:
            outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        if os.path.exists(trace_path):
            os.replace(trace_path, os.path.splitext(args.result)[0] + ".trace.json")
    finally:
        shutil.rmtree(args.run_dir, ignore_errors=True)
    with open(args.result, "w") as f:
        json.dump(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
                "checks": outcome.checks,
                "threads": outcome.threads,
            },
            f,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
