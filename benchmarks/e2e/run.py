"""End-to-end benchmark of the suite: five workloads, each in a fresh process.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out PATH]

Run from the root of a checkout; the suite is imported from its ``src/``.
Without ``--workload`` every workload of ``BENCHMARK.json`` runs in turn.
The untraced run prints the end-to-end metrics, ``--trace`` the per-layer
ones, each by name with its unit, after the host facts.  The last line of
standard output is the result as one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); ``--out`` also writes the full
record, host facts and checks included, for ``compare.py``.  The exit
code is non-zero when a check fails or the suite cannot be found.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Scratch space and Chrome traces, inside the checkout (git-ignored).
RUNS = HERE / "_runs"
#: A workload process is killed after this long, so one run of one
#: workload ends within three minutes.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run or produced a malformed result."""


def load_spec(path=SPEC) -> dict:
    with open(path) as f:
        return json.load(f)


def host_facts(seed: int) -> dict:
    """What a number measured here depends on besides the code."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        cpus = os.cpu_count() or 1

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "host_cpus": cpus,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "seed": seed,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def assemble(spec: dict, raw: dict, trace: bool) -> dict:
    """The contract result of one workload run from the child's raw one.

    Metric names are pinned to ``BENCHMARK.json``: an untraced run must
    report every end-to-end metric, and a name the spec does not list is
    an error.  A per-layer metric of a layer the workload does not enter
    in the benchmark's own process reads 0.
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(raw["metrics"]) - names)
    if unknown:
        raise BenchError(f"metrics not in BENCHMARK.json: {unknown}")
    missing = sorted(names - set(raw["metrics"]))
    if missing and not trace:
        raise BenchError(f"end-to-end metrics not measured: {missing}")
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {
            m["name"]: {"value": float(raw["metrics"].get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }


def scaling_labels(threads: dict, host_cpus: int) -> dict:
    """A speed-up measured with more threads than CPUs is no scaling row."""
    return {name: n <= host_cpus for name, n in threads.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh interpreter; returns its raw result."""
    RUNS.mkdir(exist_ok=True)
    tag = f"{name}-s{seed}{'-trace' if trace else ''}"
    result = RUNS / f"{tag}.json"
    scratch = RUNS / f"tmp-{tag}-{os.getpid()}"
    scratch.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Worker temp files stay inside the checkout.
    env["TMPDIR"] = str(scratch)
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--run-dir", str(scratch / "work"), "--result", str(result),
    ]
    # Its own session, so a timeout can stop the daemon and workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{name} did not finish within {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if rc != 0:
        raise BenchError(f"{name} exited with code {rc}")
    with open(result) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="report per-layer metrics from a traced run")
    ap.add_argument("--out", help="also write the full result record here")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout of the suite (no {SRC / 'repro'})", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = bool(args.trace)
    facts = host_facts(args.seed)

    records = []
    for name in [args.workload] if args.workload else names:
        try:
            raw = run_workload(name, args.seed, seconds, trace)
            result = assemble(spec, raw, trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        scaling = scaling_labels(raw["threads"], facts["host_cpus"])
        print(f"== {name} (seed {args.seed}, {'traced' if trace else 'untraced'})")
        for metric, m in result["metrics"].items():
            note = "" if scaling.get(metric, True) else "  (not a scaling measurement: threads > host_cpus)"
            print(f"  {metric} = {m['value']:.6g} {m['unit']}{note}")
        for c in raw["checks"]:
            print(f"  check {'ok' if c['ok'] else 'FAILED'}: {c['name']} ({c['detail']})")
        records.append({
            "workload": name, "seed": args.seed, "seconds": seconds, "trace": trace,
            "host": facts, "scaling": scaling, "checks": raw["checks"], "result": result,
        })
    print("host " + json.dumps(facts, sort_keys=True))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(records if len(records) > 1 else records[0], f, indent=1)
    final = [r["result"] for r in records]
    if len(final) == 1:
        line = final[0]
    else:
        line = {
            "correct": all(r["correct"] for r in final),
            "attempted": sum(r["attempted"] for r in final),
            "failed": sum(r["failed"] for r in final),
            "metrics": {
                f"{rec['workload']}/{k}": v for rec in records
                for k, v in rec["result"]["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
