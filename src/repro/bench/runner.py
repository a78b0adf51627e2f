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

Both timed paths apply one protocol (:func:`protocol_calls`, paper
Sec. 5.1.2) through one kernel table per target: Tew adds the tensor to
itself on one pattern, Ts scales it by 1.5, and Ttv/Ttm/Mttkrp run once
per mode and are averaged.  :data:`HOST_KERNELS` runs the calls on a
backend, :data:`GPU_KERNELS` simulates their launches on a device
(structure and operand shapes only; no kernel runs).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro import gpu, kernels
from repro.types import DEFAULT_BLOCK_SIZE, DEFAULT_RANK, Format, Kernel
from repro.bench.cpumodel import modeled_cpu_time
from repro.gpu.device import DeviceSpec
from repro.metrics.perf import PerfRecord, efficiency, gflops
from repro.metrics.stats import mean_over_modes
from repro.obs.attribution import attribute
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

#: The format-polymorphic kernels the host path times; target: a backend.
HOST_KERNELS = {
    Kernel.TEW: kernels.tew,
    Kernel.TS: kernels.ts,
    Kernel.TTV: kernels.ttv,
    Kernel.TTM: kernels.ttm,
    Kernel.MTTKRP: kernels.mttkrp,
}

#: The format-polymorphic GPU launch models; target: a device.  They
#: read the tensor's structure and the operands' shapes, run no kernel,
#: and give the timing of the matching ``repro.gpu.gpu_*`` launch.
GPU_KERNELS = {
    Kernel.TEW: gpu.tew_timing,
    Kernel.TS: gpu.ts_timing,
    Kernel.TTV: gpu.ttv_timing,
    Kernel.TTM: gpu.ttm_timing,
    Kernel.MTTKRP: gpu.mttkrp_timing,
}

#: ``"kernel:seconds,kernel:seconds"`` — injects a per-call sleep into the
#: host-measured path of the named kernels.  Exists so the perf-gate CI
#: job (and local checks) can synthesize a regression the sentinel must
#: catch; it propagates into sweep worker subprocesses via the inherited
#: environment.  Unset or empty = zero overhead; a malformed entry raises.
PERF_DRAG_ENV = "REPRO_PERF_DRAG"


def _drag_seconds(kernel: Kernel) -> float:
    """The injected slowdown configured for ``kernel`` (0.0 normally).

    Raises ``ValueError`` naming the entry when any entry is not
    ``kernel:seconds`` with a known kernel and a non-negative number.
    """
    spec = os.environ.get(PERF_DRAG_ENV, "")
    drag = 0.0
    for part in filter(None, spec.split(",")):
        name, _, secs = part.partition(":")
        try:
            named = Kernel(name.strip())
            seconds = float(secs)
        except ValueError:
            seconds = -1.0
        if not seconds >= 0.0:  # malformed, negative or nan
            raise ValueError(
                f"{PERF_DRAG_ENV}: bad entry {part!r}; expected "
                f"kernel:seconds, e.g. ttv:0.05"
            )
        if named is kernel:
            drag = seconds
    return drag


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


@dataclass
class TensorBundle:
    """One tensor prepared in every representation the sweep needs.

    The random Ttv/Ttm/Mttkrp operands (:attr:`vectors`,
    :attr:`matrices`) are drawn on first use: a modeled CPU case reads
    only :attr:`features`, a simulated GPU case only the operands'
    shapes (:meth:`shapes_only`), and for a tensor with a long mode the
    factor matrices outweigh the tensor itself.  Drawing them later draws
    the same values.
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
        index columns and plans kernels have cached on them."""
        coo, hicoo = self.coo, self.hicoo
        arrays = [coo.indices, coo.values, hicoo.bptr, hicoo.binds, hicoo.einds, hicoo.values]
        if self._operands is not None:
            arrays += self._operands[0] + self._operands[1]
        return sum(a.nbytes for a in arrays) + coo.cache_nbytes + hicoo.cache_nbytes

    def shapes_only(self) -> "TensorBundle":
        """This bundle with all-zero, zero-stride stand-ins for the
        operands: the right shapes, no memory and no RNG draw.  Enough for
        a launch model, which reads operand shapes and never values."""
        vectors = [np.broadcast_to(np.float32(0), (s,)) for s in self.coo.shape]
        matrices = [
            np.broadcast_to(np.float32(0), (s, self.rank)) for s in self.coo.shape
        ]
        return replace(self, _operands=(vectors, matrices))

    def _draw_operands(self) -> tuple:
        if self._operands is None:
            rng = rng_from_seed(self.operand_seed)
            vectors = [_random_float32(rng, (s,)) for s in self.coo.shape]
            matrices = [_random_float32(rng, (s, self.rank)) for s in self.coo.shape]
            self._operands = (vectors, matrices)
        return self._operands


def _random_float32(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """``rng.random(shape).astype(np.float32)``, drawn a block of rows at a
    time so the float64 draw never exists whole: the same values and the
    same stream position, at about the float32 result's memory."""
    out = np.empty(shape, dtype=np.float32)
    step = max(1, (1 << 16) // max(1, out[:1].size))  # 512 KiB of float64
    for lo in range(0, shape[0], step):
        out[lo:lo + step] = rng.random(out[lo:lo + step].shape)
    return out


def protocol_calls(
    kernel: Kernel, fmt: Format, bundle: TensorBundle, fn: Callable, target
) -> list:
    """The paper's calls for one cell (Sec. 5.1.2), each ``fn(x, operand,
    mode, target)`` bound and ready to run.

    ``x`` is the bundle's ``fmt`` tensor.  Tew is one ``x + x`` on one
    pattern and Ts one ``x * 1.5`` (the ``mode`` slot carries the
    operator); Ttv, Ttm and Mttkrp make one call per mode, whose times
    the caller averages with :func:`mean_over_modes`.
    """
    x = bundle.coo if fmt is Format.COO else bundle.hicoo
    if kernel is Kernel.TEW:
        return [partial(fn, x, x, "add", target, assume_same_pattern=True)]
    if kernel is Kernel.TS:
        return [partial(fn, x, 1.5, "mul", target)]
    modes = range(bundle.coo.nmodes)
    if kernel is Kernel.TTV:
        return [partial(fn, x, bundle.vectors[m], m, target) for m in modes]
    if kernel is Kernel.TTM:
        return [partial(fn, x, bundle.matrices[m], m, target) for m in modes]
    if kernel is Kernel.MTTKRP:
        return [partial(fn, x, bundle.matrices, m, target) for m in modes]
    raise ValueError(kernel)


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
        # The whole measurement gets one top-level kernel span (named
        # ``run.`` to keep it distinct from real kernel-internal spans),
        # so a trace always carries a CAT_KERNEL event — including on
        # the modeled path, where no host kernel ever runs.  Disabled,
        # this is the shared null context.
        with current_tracer().span(
            f"run.{kernel.value}",
            cat=CAT_KERNEL,
            tensor=bundle.name,
            fmt=fmt.value,
            platform=self.platform.name,
        ):
            if self.platform.is_gpu:
                seconds, extra = self._gpu_time(bundle, kernel, fmt)
                host_seconds = 0.0
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
        # Roofline attribution: explain this measurement against its bound
        # (rides in extra["roofline"] and therefore into run-store lines).
        attribution = attribute(self.roofline, cost, seconds, host_seconds)
        extra = dict(extra, roofline=attribution.as_dict())
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
        calls = protocol_calls(kernel, fmt, bundle, HOST_KERNELS[kernel], self.backend)
        return mean_over_modes(
            [time_call(_with_drag(call, drag), cfg.repeats, cfg.warmup).seconds for call in calls]
        )

    def _gpu_time(
        self, bundle: TensorBundle, kernel: Kernel, fmt: Format
    ) -> tuple[float, dict]:
        """Simulated GPU time averaged over the protocol's calls, and the
        last call's cost-model notes."""
        timings = [
            call() for call in protocol_calls(
                kernel, fmt, bundle.shapes_only(), GPU_KERNELS[kernel], self.device
            )
        ]
        last = timings[-1]
        return (
            mean_over_modes([t.total_s for t in timings]),
            dict(last.notes, imbalance=last.imbalance),
        )

    # ------------------------------------------------------------------ #
    def run_dataset(
        self, tensors: dict[str, COOTensor]
    ) -> list[PerfRecord]:
        """Run the full sweep over a named tensor collection."""
        records: list[PerfRecord] = []
        for name, tensor in tensors.items():
            records.extend(self.run_tensor(name, tensor))
        return records
