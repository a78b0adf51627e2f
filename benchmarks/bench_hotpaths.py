"""Hot-path harness: kernel × format × method × backend wall-clock.

Times the scatter-add kernels (Mttkrp on COO/HiCOO) across update methods
(``atomic``, ``sort``, ``owner``) and backends, the fiber-parallel
kernels (Ttv/Ttm on COO and HiCOO), and tensor generation (the
choa and vast surrogates and the regM Table 3 tensor, ``kernel:
"generate"`` rows tagged with the tensor name), and writes
``BENCH_kernels.json`` at the repo root.  The JSON is committed so every
PR has a perf trajectory to compare against:

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick    # CI smoke

Every backend runs the same lowering (see ``repro.kernels.plans``): the
OpenMP Mttkrp rows split the output rows into one owner range per thread,
the sequential rows run one range.  One-time plan construction (segment
plans, owner partitions, the Ttv/Ttm fiber plans: the sort and, for
HiCOO, the gHiCOO copy) lands in warmup; the ``plan.build_seconds``
registry delta around it is reported as ``compile_s`` per entry so
``median_s`` times the steady-state loop.  Each
entry is also attributed against the Bluesky CPU roofline
(``bound_fraction = achieved / min(peak, OI x ERT-DRAM)``), and carries
``host_cpus``: a row with ``oversubscribed: true`` ran more threads than
the host has CPUs, so it is not a scaling measurement.

Invariants asserted and recorded under ``checks``:

* ``method="owner"`` is bit-identical to the sequential kernel;
* the OpenMP backend is bit-identical to the sequential backend on
  COO/HiCOO Mttkrp (every method), Ttv and Ttm.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import numpy as np

from repro.datasets import make_surrogate
from repro.generate import get_synthetic, powerlaw_tensor
from repro.kernels import (
    coo_mttkrp,
    coo_ttm,
    coo_ttv,
    hicoo_mttkrp,
    hicoo_ttm,
    hicoo_ttv,
)
from repro.obs import Tracer, analyze, chrome_trace
from repro.obs.attribution import attribute
from repro.obs.registry import get_metrics
from repro.parallel import OpenMPBackend, get_backend
from repro.roofline import BLUESKY, RooflineModel
from repro.roofline.oi import cost_for, extract_features
from repro.sptensor import HiCOOTensor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_kernels.json")
RANK = 16
BLOCK = 128
HOST_CPUS = os.cpu_count() or 1


def _plan_counter(name: str) -> float:
    """Total of one ``plan.*`` registry counter over all its labels."""
    return get_metrics().counter_totals(name).get(name, 0.0)


def _time(fn, reps: int, warmup: int = 1) -> dict:
    # One-time scatter-plan builds land in warmup; the registry delta
    # around it is reported as compile_s so median_s measures only
    # steady-state execution.
    c0 = _plan_counter("plan.build_seconds")
    for _ in range(warmup):
        fn()
    compile_s = _plan_counter("plan.build_seconds") - c0
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "median_s": round(statistics.median(samples), 6),
        "min_s": round(min(samples), 6),
        "compile_s": round(compile_s, 6),
        "reps": reps,
    }


def run(quick: bool, nthreads: int, reps: int, trace_path: str | None = None) -> dict:
    shape, nnz = ((2000, 2000, 32), 30_000) if quick else ((8000, 8000, 64), 200_000)
    x = powerlaw_tensor(shape, nnz=nnz, dense_modes=(2,), seed=13).sort()
    h = HiCOOTensor.from_coo(x, BLOCK)
    rng = np.random.default_rng(1)
    mats = [rng.random((s, RANK)).astype(np.float32) for s in x.shape]
    vec = rng.random(x.shape[1]).astype(np.float32)
    u = rng.random((x.shape[1], RANK)).astype(np.float32)
    seq = get_backend("sequential")
    omp = OpenMPBackend(nthreads=nthreads)
    features = extract_features(x, "bench", BLOCK, hicoo=h)
    model = RooflineModel(BLUESKY)

    results = []
    traces: list = []

    def record(kernel, fmt, backend, nthr, fn, **tags):
        entry = {"kernel": kernel, "format": fmt, "backend": backend,
                 "nthreads": nthr, **tags, **_time(fn, reps),
                 "host_cpus": HOST_CPUS, "oversubscribed": nthr > HOST_CPUS}
        # Effective DRAM bandwidth: Table-1 modeled bytes over measured
        # median — comparable against the platform ceilings in Table 1.
        cost = cost_for(features, kernel, fmt, r=RANK)
        if entry["median_s"] > 0:
            entry["eff_bw_gbs"] = round(cost.bytes / entry["median_s"] / 1e9, 3)
            att = attribute(model, cost, entry["median_s"], entry["median_s"])
            entry["bound_fraction"] = round(att.bound_fraction, 4)
        if backend != "sequential":
            # One traced rerun *after* the timing loop: the tracer is only
            # installed here, so the recorded medians keep the untraced
            # hot path while the entry still carries imbalance analytics.
            tracer = Tracer()
            with tracer:
                fn()
            trace = tracer.freeze()
            st = analyze(trace)
            entry["imbalance"] = round(st.imbalance, 3)
            entry["busy_frac"] = round(st.busy_frac, 3)
            if trace_path:
                label = "/".join(
                    str(v) for v in (kernel, fmt, *tags.values())
                )
                traces.append((label, trace))
        results.append(entry)
        return entry

    # --- Mttkrp: the scatter-add methods ------------------------------ #
    record("mttkrp", "coo", "sequential", 1,
           lambda: coo_mttkrp(x, mats, 0, seq), method="atomic")
    for method in ("atomic", "sort", "owner"):
        record("mttkrp", "coo", "openmp", nthreads,
               lambda m=method: coo_mttkrp(x, mats, 0, omp, method=m),
               method=method)

    record("mttkrp", "hicoo", "sequential", 1,
           lambda: hicoo_mttkrp(h, mats, 0, seq), method="atomic")
    for method in ("atomic", "owner"):
        record("mttkrp", "hicoo", "openmp", nthreads,
               lambda m=method: hicoo_mttkrp(h, mats, 0, omp, method=m),
               method=method)

    # --- Ttv / Ttm: the static fiber loop ------------------------------ #
    record("ttv", "coo", "openmp", nthreads, lambda: coo_ttv(x, vec, 1, omp))
    record("ttm", "coo", "openmp", nthreads, lambda: coo_ttm(x, u, 1, omp))
    record("ttv", "hicoo", "openmp", nthreads, lambda: hicoo_ttv(h, vec, 1, omp))
    record("ttm", "hicoo", "openmp", nthreads, lambda: hicoo_ttm(h, u, 1, omp))

    # --- Generation: the resample loop behind every synthetic tensor --- #
    for name, make in (
        ("choa", lambda: make_surrogate("choa")),
        ("vast", lambda: make_surrogate("vast")),
        ("regM", lambda: get_synthetic("regM").generate()),
    ):
        results.append({"kernel": "generate", "format": "coo",
                        "backend": "sequential", "nthreads": 1,
                        "tensor": name, **_time(make, reps),
                        "host_cpus": HOST_CPUS, "oversubscribed": False})

    # --- Invariant checks (recorded, and asserted below) --------------- #
    ref = coo_mttkrp(x, mats, 0, seq)
    owner_seq = coo_mttkrp(x, mats, 0, seq, method="owner")
    owner_par = coo_mttkrp(x, mats, 0, omp, method="owner")
    pairs = [
        (fn(t, mats, mode, seq, method=m), fn(t, mats, mode, omp, method=m))
        for fn, t in ((coo_mttkrp, x), (hicoo_mttkrp, h))
        for m in ("atomic", "sort", "owner")
        for mode in range(x.nmodes)
    ]
    for ttv, ttm, t in ((coo_ttv, coo_ttm, x), (hicoo_ttv, hicoo_ttm, h)):
        pairs.append((ttv(t, vec, 1, seq).values, ttv(t, vec, 1, omp).values))
        pairs.append((ttm(t, u, 1, seq).values, ttm(t, u, 1, omp).values))
    checks = {
        "owner_bitidentical_to_sequential": bool(
            np.array_equal(ref, owner_seq) and np.array_equal(ref, owner_par)
        ),
        "openmp_bitidentical_to_sequential": all(
            np.array_equal(a, b) for a, b in pairs
        ),
    }
    omp.shutdown()

    if trace_path:
        # One Chrome-trace document, one pid per traced entry, so Perfetto
        # shows each kernel config as its own process lane.
        merged = {"traceEvents": [], "displayTimeUnit": "ms"}
        for pid, (label, trace) in enumerate(traces):
            merged["traceEvents"].append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
            for ev in chrome_trace(trace)["traceEvents"]:
                merged["traceEvents"].append(dict(ev, pid=pid))
        with open(trace_path, "w") as f:
            json.dump(merged, f, indent=1)
            f.write("\n")
        print(f"wrote Chrome trace ({len(traces)} traced reruns) -> {trace_path}")

    return {
        "meta": {
            "tensor": {"shape": list(shape), "nnz": int(x.nnz),
                       "generator": "powerlaw(dense_modes=(2,), seed=13)"},
            "rank": RANK,
            "hicoo_block": BLOCK,
            "nthreads": nthreads,
            "host_cpus": HOST_CPUS,
            "numpy": np.__version__,
            "quick": quick,
            "roofline_platform": BLUESKY.name,
            "plans": {
                "builds": int(_plan_counter("plan.builds")),
                "build_seconds": round(_plan_counter("plan.build_seconds"), 6),
            },
        },
        "results": results,
        "checks": checks,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small tensor, fewer reps (CI smoke)")
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help=f"output JSON path (default {DEFAULT_OUT})")
    ap.add_argument("--threads", type=int, default=max(4, os.cpu_count() or 1),
                    help="OpenMP backend thread count")
    ap.add_argument("--reps", type=int, default=None,
                    help="timing repetitions (default 3 quick / 7 full)")
    ap.add_argument("--trace", metavar="PATH", default=None,
                    help="save a Chrome trace of the traced reruns to PATH")
    args = ap.parse_args()
    reps = args.reps or (3 if args.quick else 7)

    report = run(args.quick, args.threads, reps, trace_path=args.trace)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    for key, val in report["checks"].items():
        print(f"  {key}: {val}")
    if not report["checks"]["owner_bitidentical_to_sequential"]:
        raise SystemExit("FAIL: owner method not bit-identical to sequential")
    if not report["checks"]["openmp_bitidentical_to_sequential"]:
        raise SystemExit("FAIL: OpenMP backend not bit-identical to sequential")


if __name__ == "__main__":
    main()
