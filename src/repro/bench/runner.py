"""Benchmark driver: run the five kernels over tensors, formats, platforms.

For every (tensor, kernel, format) the runner produces a
:class:`~repro.metrics.perf.PerfRecord` with

* the paper-platform execution time — modeled analytically for the two
  CPU platforms (:mod:`repro.bench.cpumodel`) and simulated for the two
  GPUs (:mod:`repro.gpu`);
* the *measured host* wall-clock of the actual NumPy kernel (the paper's
  measurement protocol: warm-up + averaged repeats, mode-oriented kernels
  averaged over modes);
* the per-tensor roofline bound and efficiency.

The paper benchmarks Tew via addition and Ts via multiplication with both
operands sharing a pattern (Sec. 5.1.2); the runner follows that.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.types import DEFAULT_BLOCK_SIZE, DEFAULT_RANK, Format, Kernel
from repro.kernels import (
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
)
from repro.bench.cpumodel import modeled_cpu_time
from repro.gpu.device import DeviceSpec
from repro.gpu.kernels import (
    gpu_coo_mttkrp,
    gpu_hicoo_mttkrp,
    gpu_tew,
    gpu_ts,
    gpu_ttm,
    gpu_ttv,
)
from repro.metrics.perf import PerfRecord, efficiency, gflops
from repro.metrics.stats import mean_over_modes
from repro.obs.attribution import attach_to_trace, attribute
from repro.obs.tracer import CAT_KERNEL, current_tracer
from repro.parallel.backend import Backend, get_backend
from repro.roofline.model import RooflineModel
from repro.roofline.oi import TensorFeatures, cost_for, extract_features
from repro.roofline.platform import PlatformSpec
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor
from repro.util.prng import rng_from_seed
from repro.util.timing import time_call

ALL_KERNELS = (Kernel.TEW, Kernel.TS, Kernel.TTV, Kernel.TTM, Kernel.MTTKRP)
BENCH_FORMATS = (Format.COO, Format.HICOO)

#: ``"kernel:seconds,kernel:seconds"`` — injects a per-call sleep into the
#: host-measured path of the named kernels.  Exists so the perf-gate CI
#: job (and local checks) can synthesize a regression the sentinel must
#: catch; it propagates into sweep worker subprocesses via the inherited
#: environment.  Unset or empty = zero overhead.
PERF_DRAG_ENV = "REPRO_PERF_DRAG"


def _drag_seconds(kernel: Kernel) -> float:
    """The injected slowdown configured for ``kernel`` (0.0 normally)."""
    spec = os.environ.get(PERF_DRAG_ENV, "")
    if not spec:
        return 0.0
    for part in spec.split(","):
        name, sep, secs = part.partition(":")
        if sep and name.strip() == kernel.value:
            try:
                return max(0.0, float(secs))
            except ValueError:
                return 0.0
    return 0.0


def _with_drag(fn, drag_s: float):
    """Wrap a timed callable with the configured synthetic slowdown."""
    if drag_s <= 0.0:
        return fn

    def dragged():
        time.sleep(drag_s)
        return fn()

    return dragged


def fingerprint_schema_version() -> str:
    """Stable 12-hex-digit hash of the :class:`SweepCase` field set.

    A case fingerprint is a hash over every ``SweepCase`` field, so two
    fingerprints are only comparable when they were computed under the
    same field set: adding, removing or renaming a field silently changes
    every fingerprint.  Run-store journals stamp this value in their
    header line so a cache lookup against a store written under a
    different field set is rejected loudly instead of missing (or worse,
    falsely hitting) every case.
    """
    import dataclasses

    names = "\x1f".join(f.name for f in dataclasses.fields(SweepCase))
    return hashlib.sha256(names.encode("utf-8")).hexdigest()[:12]


def derive_case_seed(base_seed: int, *parts) -> int:
    """A stable 63-bit seed from ``base_seed`` and string-able ``parts``.

    Every per-case RNG in the sweep derives its seed this way, so the
    random inputs of a case depend only on *what the case is* — never on
    how many cases ran before it from a shared RNG.  That is the property
    that makes a sharded or resumed sweep produce records bit-identical
    to one uninterrupted in-process run.
    """
    text = "\x1f".join([str(int(base_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


@dataclass
class RunnerConfig:
    """Knobs of a benchmark sweep (paper defaults)."""

    rank: int = DEFAULT_RANK
    block_size: int = DEFAULT_BLOCK_SIZE
    repeats: int = 3  # paper uses 5; 3 keeps suite runtime modest
    warmup: int = 1
    measure_host: bool = True
    backend: "Backend | str | None" = None
    kernels: Sequence[Kernel] = ALL_KERNELS
    formats: Sequence[Format] = BENCH_FORMATS
    seed: int = 0
    #: Datasets are downscaled by this factor relative to the paper's
    #: (DESIGN.md); the platform caches are scaled down in proportion so
    #: the cache crossovers of Observation 2 land on the same *relative*
    #: tensor sizes.  1.0 = paper-scale tensors.
    cache_scale: float = 1.0
    #: Record a span trace per (kernel, format) measurement and attach the
    #: load-imbalance analytics (:func:`repro.obs.analyze`) to
    #: ``PerfRecord.extra["obs"]``.  Off by default — tracing perturbs the
    #: host timings it observes.
    trace: bool = False


@dataclass
class TensorBundle:
    """One tensor prepared in every representation the sweep needs.

    The random Ttv/Ttm/Mttkrp operands (:attr:`vectors`,
    :attr:`matrices`) are drawn on first use: a modeled CPU case reads
    only :attr:`features`, and for a tensor with a long mode the factor
    matrices outweigh the tensor itself.  Drawing them later draws the
    same values.
    """

    name: str
    coo: COOTensor
    hicoo: HiCOOTensor
    features: TensorFeatures
    rank: int
    #: Seed of the operand RNG.
    operand_seed: int
    _operands: "tuple | None" = field(default=None, repr=False, compare=False)

    @classmethod
    def prepare(
        cls,
        name: str,
        tensor: COOTensor,
        config: RunnerConfig,
    ) -> "TensorBundle":
        # Vectors/matrices are seeded from (config.seed, tensor name), not
        # from a shared RNG, so a bundle's random operands are identical
        # whether the tensor is first, last, or alone in a sweep.
        coo = tensor.copy().sort()
        hicoo = HiCOOTensor.from_coo(coo, config.block_size)
        feats = extract_features(coo, name, config.block_size, hicoo)
        seed = derive_case_seed(config.seed, "bundle", name)
        return cls(name, coo, hicoo, feats, config.rank, seed)

    @property
    def vectors(self) -> list:
        """One float32 vector per mode."""
        return self._draw_operands()[0]

    @property
    def matrices(self) -> list:
        """One float32 ``(I_m, rank)`` matrix per mode."""
        return self._draw_operands()[1]

    @property
    def nbytes(self) -> int:
        """Bytes of the prepared arrays, the operands once drawn, and the
        index columns and scatter plans kernels have cached on them."""
        coo, hicoo = self.coo, self.hicoo
        arrays = [coo.indices, coo.values, hicoo.bptr, hicoo.binds, hicoo.einds, hicoo.values]
        if self._operands is not None:
            arrays += self._operands[0] + self._operands[1]
        return sum(a.nbytes for a in arrays) + coo.cache_nbytes + hicoo.cache_nbytes

    def _draw_operands(self) -> tuple:
        if self._operands is None:
            rng = rng_from_seed(self.operand_seed)
            vectors = [rng.random(s).astype(np.float32) for s in self.coo.shape]
            matrices = [
                rng.random((s, self.rank)).astype(np.float32)
                for s in self.coo.shape
            ]
            self._operands = (vectors, matrices)
        return self._operands


@dataclass(frozen=True)
class SweepCase:
    """One (tensor, kernel, format, platform) cell of a sweep.

    A case is fully self-describing: ``tensor_spec`` says how to
    *materialize* the tensor (registry key / file / random parameters),
    and the measurement knobs are copied out of the
    :class:`RunnerConfig`, so a worker subprocess can reconstruct and run
    the case from its JSON form alone.  Identity is the
    :attr:`fingerprint` — a stable hash of every field — and the case's
    RNG seed derives from that fingerprint, never from enumeration
    order.
    """

    tensor: str
    kernel: str
    fmt: str
    platform: str
    #: Canonical ``(key, value)`` pairs describing tensor materialization
    #: (see :func:`repro.bench.executor.materialize_tensor`).
    tensor_spec: tuple
    rank: int = DEFAULT_RANK
    block_size: int = DEFAULT_BLOCK_SIZE
    repeats: int = 3
    warmup: int = 1
    measure_host: bool = False
    backend: "str | None" = None
    base_seed: int = 0
    cache_scale: float = 1.0

    @property
    def fingerprint(self) -> str:
        """Stable 16-hex-digit identity of this case."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def case_seed(self) -> int:
        """The case's RNG seed, derived from the fingerprint."""
        return derive_case_seed(0, "case", self.fingerprint)

    def to_dict(self) -> dict:
        return {
            "tensor": self.tensor,
            "kernel": self.kernel,
            "fmt": self.fmt,
            "platform": self.platform,
            "tensor_spec": [list(kv) for kv in self.tensor_spec],
            "rank": self.rank,
            "block_size": self.block_size,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "measure_host": self.measure_host,
            "backend": self.backend,
            "base_seed": self.base_seed,
            "cache_scale": self.cache_scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepCase":
        d = dict(d)
        # Canonicalize so a JSON round-trip (lists for tuples) compares
        # and fingerprints identically to the original case.
        d["tensor_spec"] = canonical_tensor_spec(d["tensor_spec"])
        return cls(**d)

    def runner_config(self) -> RunnerConfig:
        """The :class:`RunnerConfig` reproducing this case's measurement."""
        return RunnerConfig(
            rank=self.rank,
            block_size=self.block_size,
            repeats=self.repeats,
            warmup=self.warmup,
            measure_host=self.measure_host,
            backend=self.backend,
            kernels=(Kernel.coerce(self.kernel),),
            formats=(Format.coerce(self.fmt),),
            seed=self.base_seed,
            cache_scale=self.cache_scale,
        )


def canonical_tensor_spec(spec: "dict | tuple") -> tuple:
    """Normalize a tensor spec to sorted, hashable ``(key, value)`` pairs."""
    items = dict(spec).items()
    out = []
    for k, v in sorted(items):
        if isinstance(v, (list, tuple)):
            v = tuple(int(x) for x in v)
        out.append((str(k), v))
    return tuple(out)


def enumerate_cases(
    tensor_specs: "dict[str, dict | tuple]",
    config: "RunnerConfig | None" = None,
    platforms: Sequence[str] = ("Bluesky",),
) -> "list[SweepCase]":
    """The deterministic case list of a sweep.

    Order is platform-major, then tensor name (sorted — independent of
    the mapping's insertion order), then the config's kernel and format
    order.  Two calls with equal inputs produce the identical list, which
    is what shard partitioning (``index % shards``) relies on.
    """
    config = config or RunnerConfig()
    cases = []
    for platform in platforms:
        for name in sorted(tensor_specs):
            spec = canonical_tensor_spec(tensor_specs[name])
            for kernel in config.kernels:
                for fmt in config.formats:
                    cases.append(
                        SweepCase(
                            tensor=name,
                            kernel=Kernel.coerce(kernel).value,
                            fmt=Format.coerce(fmt).value,
                            platform=platform,
                            tensor_spec=spec,
                            rank=config.rank,
                            block_size=config.block_size,
                            repeats=config.repeats,
                            warmup=config.warmup,
                            measure_host=config.measure_host,
                            backend=(
                                config.backend
                                if isinstance(config.backend, (str, type(None)))
                                else config.backend.name
                            ),
                            base_seed=config.seed,
                            cache_scale=config.cache_scale,
                        )
                    )
    return cases


class SuiteRunner:
    """Runs the suite's kernels against one paper platform."""

    def __init__(
        self,
        platform: PlatformSpec,
        config: RunnerConfig | None = None,
        device: DeviceSpec | None = None,
    ):
        self.config = config or RunnerConfig()
        if self.config.cache_scale > 1.0:
            platform = platform.with_overrides(
                llc_bytes=max(4096, int(platform.llc_bytes / self.config.cache_scale))
            )
        self.platform = platform
        self.roofline = RooflineModel(platform)
        if platform.is_gpu and device is None:
            device = DeviceSpec.from_platform(
                platform,
                address_overlap=0.6 if platform.microarch == "Volta" else 0.0,
            )
            if self.config.cache_scale > 1.0:
                device = device.scaled(self.config.cache_scale)
        self.device = device
        self.backend = get_backend(self.config.backend)

    # ------------------------------------------------------------------ #
    def run_tensor(
        self, name: str, tensor: COOTensor
    ) -> list[PerfRecord]:
        """All configured (kernel, format) pairs on one tensor."""
        bundle = TensorBundle.prepare(name, tensor, self.config)
        records = []
        for kernel in self.config.kernels:
            for fmt in self.config.formats:
                records.append(self.run_kernel(bundle, kernel, fmt))
        return records

    def run_kernel(
        self,
        bundle: TensorBundle,
        kernel: "Kernel | str",
        fmt: "Format | str",
    ) -> PerfRecord:
        kernel = Kernel.coerce(kernel)
        fmt = Format.coerce(fmt)
        cost = cost_for(bundle.features, kernel, fmt, self.config.rank)
        bound = self.roofline.attainable(cost.oi)
        tracer = None
        if self.config.trace:
            from repro.obs import Tracer

            tracer = Tracer(
                meta={
                    "tensor": bundle.name,
                    "kernel": kernel.value,
                    "fmt": fmt.value,
                    "platform": self.platform.name,
                }
            ).install()
        # The whole measurement gets one top-level kernel span (named
        # ``run.`` to keep it distinct from real kernel-internal spans),
        # so a trace always carries a CAT_KERNEL event — including on
        # the modeled path, where no host kernel ever runs.  Reading the
        # active tracer *after* the optional install means a per-case
        # config.trace tracer (or a worker's installed request tracer)
        # records it; disabled, this is the shared null context.
        obs = current_tracer()
        try:
            with obs.span(
                f"run.{kernel.value}",
                cat=CAT_KERNEL,
                tensor=bundle.name,
                fmt=fmt.value,
                platform=self.platform.name,
            ):
                if self.platform.is_gpu:
                    seconds, host_seconds, extra = self._gpu_time(bundle, kernel, fmt)
                else:
                    timing = modeled_cpu_time(
                        self.platform, kernel, fmt, bundle.features, self.config.rank
                    )
                    seconds = timing.total_s
                    extra = {
                        "memory_s": timing.memory_s,
                        "fiber_s": timing.fiber_s,
                        "atomic_s": timing.atomic_s,
                        "cache_resident": timing.cache_resident,
                    }
                    host_seconds = (
                        self._host_time(bundle, kernel, fmt)
                        if self.config.measure_host
                        else 0.0
                    )
        finally:
            if tracer is not None:
                tracer.uninstall()
        # Roofline attribution: explain this measurement against its bound
        # (rides in extra["roofline"] and therefore into run-store lines).
        attribution = attribute(self.roofline, cost, seconds, host_seconds)
        extra = dict(extra, roofline=attribution.as_dict())
        if tracer is not None:
            from repro.obs import analyze

            trace = attach_to_trace(tracer.freeze(), attribution)
            extra["obs"] = analyze(trace).as_dict()
        g = gflops(cost.flops, seconds)
        return PerfRecord(
            tensor=bundle.name,
            kernel=kernel.value,
            fmt=fmt.value,
            platform=self.platform.name,
            flops=cost.flops,
            seconds=seconds,
            gflops=g,
            bound_gflops=bound,
            efficiency=efficiency(g, bound),
            host_seconds=host_seconds,
            host_gflops=gflops(cost.flops, host_seconds),
            extra=extra,
        )

    # ------------------------------------------------------------------ #
    def _host_time(self, bundle: TensorBundle, kernel: Kernel, fmt: Format) -> float:
        """Measured wall-clock of the NumPy kernel on this machine.

        Honors :data:`PERF_DRAG_ENV` (a synthetic per-call slowdown used
        by the regression-sentinel gate to fabricate a detectable
        regression).
        """
        cfg = self.config
        drag = _drag_seconds(kernel)
        x = bundle.coo if fmt is Format.COO else bundle.hicoo
        be = self.backend
        if kernel is Kernel.TEW:
            fn = (
                (lambda: coo_tew(x, x, "add", be, assume_same_pattern=True))
                if fmt is Format.COO
                else (lambda: hicoo_tew(x, x, "add", be, assume_same_pattern=True))
            )
            return time_call(_with_drag(fn, drag), cfg.repeats, cfg.warmup).seconds
        if kernel is Kernel.TS:
            fn = (
                (lambda: coo_ts(x, 1.5, "mul", be))
                if fmt is Format.COO
                else (lambda: hicoo_ts(x, 1.5, "mul", be))
            )
            return time_call(_with_drag(fn, drag), cfg.repeats, cfg.warmup).seconds
        # Mode-oriented kernels: average over all modes (paper protocol).
        times = []
        for mode in range(bundle.coo.nmodes):
            if kernel is Kernel.TTV:
                v = bundle.vectors[mode]
                fn = (
                    (lambda: coo_ttv(bundle.coo, v, mode, be))
                    if fmt is Format.COO
                    else (lambda: hicoo_ttv(bundle.hicoo, v, mode, be))
                )
            elif kernel is Kernel.TTM:
                u = bundle.matrices[mode]
                fn = (
                    (lambda: coo_ttm(bundle.coo, u, mode, be))
                    if fmt is Format.COO
                    else (lambda: hicoo_ttm(bundle.hicoo, u, mode, be))
                )
            elif kernel is Kernel.MTTKRP:
                fn = (
                    (lambda: coo_mttkrp(bundle.coo, bundle.matrices, mode, be))
                    if fmt is Format.COO
                    else (lambda: hicoo_mttkrp(bundle.hicoo, bundle.matrices, mode, be))
                )
            else:  # pragma: no cover - exhaustive above
                raise ValueError(kernel)
            times.append(time_call(_with_drag(fn, drag), cfg.repeats, cfg.warmup).seconds)
        return mean_over_modes(times)

    def _gpu_time(
        self, bundle: TensorBundle, kernel: Kernel, fmt: Format
    ) -> tuple[float, float, dict]:
        """Simulated GPU time (mode-averaged), plus the host wall-clock of
        the numeric execution embedded in the simulation."""
        dev = self.device
        x = bundle.coo if fmt is Format.COO else bundle.hicoo
        host = 0.0
        if kernel is Kernel.TEW:
            res = gpu_tew(x, x, "add", dev, assume_same_pattern=True)
            return res.seconds, host, dict(res.timing.notes, imbalance=res.timing.imbalance)
        if kernel is Kernel.TS:
            res = gpu_ts(x, 1.5, "mul", dev)
            return res.seconds, host, dict(res.timing.notes, imbalance=res.timing.imbalance)
        times, notes = [], {}
        for mode in range(bundle.coo.nmodes):
            if kernel is Kernel.TTV:
                res = gpu_ttv(x, bundle.vectors[mode], mode, dev)
            elif kernel is Kernel.TTM:
                res = gpu_ttm(x, bundle.matrices[mode], mode, dev)
            elif kernel is Kernel.MTTKRP:
                res = (
                    gpu_coo_mttkrp(x, bundle.matrices, mode, dev)
                    if fmt is Format.COO
                    else gpu_hicoo_mttkrp(x, bundle.matrices, mode, dev)
                )
            else:  # pragma: no cover - exhaustive above
                raise ValueError(kernel)
            times.append(res.seconds)
            notes = dict(res.timing.notes, imbalance=res.timing.imbalance)
        return mean_over_modes(times), host, notes

    # ------------------------------------------------------------------ #
    def run_dataset(
        self, tensors: dict[str, COOTensor]
    ) -> list[PerfRecord]:
        """Run the full sweep over a named tensor collection."""
        records: list[PerfRecord] = []
        for name, tensor in tensors.items():
            records.extend(self.run_tensor(name, tensor))
        return records
