"""Tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Each workload runs at a tiny size, its metric names are pinned to
``BENCHMARK.json``, a mutated record, fit or window fails the matching
correctness check, and ``compare.py`` classifies synthetic runs.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import LayerClock, budget  # noqa: E402
from repro.bench.executor import ExecutorConfig, build_sweep_cases  # noqa: E402
from repro.ingest import IngestBench, IngestConfig  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.sptensor.coo import COOTensor  # noqa: E402

SPEC = run.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYER = [m["name"] for m in SPEC["per_layer"]]

#: Tiny inputs per workload (the benchmark's own sizes are the defaults).
TINY = {
    "sweep-spawn": dict(tensors=("regS", "irrS"), round_size=2),
    "sweep-materialize": dict(dataset="synthetic", tensors=("regS",), round_size=2),
    "serve-mixed": dict(tensors=("regS",), cycles=1),
    "cpd-als": dict(shape=(60, 50, 8), nnz=800, rank=4, n_iters=2),
    "ingest-window": dict(events=40_000),
}


def test_tiny_sizes_cover_every_workload():
    assert sorted(TINY) == sorted(wl.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Each (workload, traced) pair run once at tiny size."""
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            run_dir = str(tmp_path_factory.mktemp(name))
            cache[name, trace] = wl.WORKLOADS[name](0, 0.3, trace, run_dir, **TINY[name])
        return cache[name, trace]

    return get


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_at_tiny_size(tiny_run, name, trace):
    out = tiny_run(name, trace)
    assert out.correct, out.checks
    assert out.attempted >= 1 and out.failed == 0
    # run.py's child adds peak_rss_mb (untraced) and worker.import_s (traced).
    extra = {"worker.import_s": 0.3} if trace else {"peak_rss_mb": 50.0}
    raw = {"correct": out.correct, "attempted": out.attempted, "failed": out.failed,
           "metrics": {**out.metrics, **extra}}
    result = run.assemble(SPEC, raw, trace)
    assert list(result["metrics"]) == (LAYER if trace else E2E)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_names_are_all_measured(tiny_run):
    measured = {"worker.import_s"}
    for name in TINY:
        measured |= set(tiny_run(name, True).metrics)
    assert measured == set(LAYER)


def test_layer_budget_closes(tiny_run):
    for name in TINY:
        shares = {k: v for k, v in tiny_run(name, True).metrics.items() if k.endswith(".share")}
        assert shares["unattributed.share"] >= -0.02, (name, shares)
        assert sum(shares.values()) == pytest.approx(1.0)


def test_assemble_pins_names():
    raw = {"correct": True, "attempted": 1, "failed": 0, "metrics": {n: 1.0 for n in E2E}}
    assert run.assemble(SPEC, raw, False)["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}
    with pytest.raises(run.BenchError, match="not in BENCHMARK.json"):
        run.assemble(SPEC, {**raw, "metrics": {**raw["metrics"], "bogus": 1.0}}, False)
    with pytest.raises(run.BenchError, match="not measured"):
        run.assemble(SPEC, {**raw, "metrics": {"setup_s": 1.0}}, False)
    layers = run.assemble(SPEC, {**raw, "metrics": {"worker.import_s": 0.3}}, True)["metrics"]
    assert layers["generate.share"]["value"] == 0.0


def test_scaling_label_needs_a_cpu_per_thread():
    assert run.scaling_labels({"parallel.speedup.coo": 2}, 2) == {"parallel.speedup.coo": True}
    assert run.scaling_labels({"parallel.speedup.coo": 2}, 1) == {"parallel.speedup.coo": False}


def test_host_facts_are_stamped():
    facts = run.host_facts(7)
    assert facts["seed"] == 7 and facts["host_cpus"] >= 1
    assert {"python", "numpy", "scipy", "numba", "git_commit", "repro_env"} <= set(facts)


# --------------------------------------------------------------------- #
# Correctness checks catch mutations
# --------------------------------------------------------------------- #
def test_sweep_check_catches_mutated_records(tmp_path):
    cases = build_sweep_cases(dataset="synthetic", keys=["regS"], seed=1)[:2]
    phase = wl.sweep_phase(cases, ExecutorConfig(isolation="inline"), 0, tmp_path, 2)
    oracle = wl.SweepOracle()
    assert wl.check_sweep(phase, oracle)[0]

    def mutated(edit):
        bad = copy.deepcopy(phase)
        edit(bad.rounds[0][1])
        return wl.check_sweep(bad, oracle)[0]

    def perturb(journal):
        record = next(line for _, line in journal if line["kind"] == "record")["record"]
        record["seconds"] = float(np.nextafter(record["seconds"], np.inf))

    def duplicate(journal):
        journal.append(next(item for item in journal if item[1]["kind"] == "record"))

    def quarantine(journal):
        line = next(line for _, line in journal if line["kind"] == "record")
        line["kind"] = "quarantine"

    assert not mutated(perturb)
    assert not mutated(duplicate)
    assert not mutated(quarantine)


def test_served_check_catches_a_hit_unlike_its_miss():
    def answer(miss, seconds, executed, hits):
        resp = {"quarantined": [], "records": [{"seconds": seconds}], "total": 1,
                "executed": executed, "hits": hits}
        return wl.Answer.of(("regS", 1), miss, 0.01, resp)

    miss = answer(True, 1.0, 1, 0)
    assert wl.check_served([[miss, answer(False, 1.0, 0, 1)]])[0]
    assert not wl.check_served([[miss, answer(False, 1.5, 0, 1)]])[0]
    assert not wl.check_served([[miss, answer(False, 1.0, 1, 0)]])[0]
    assert not wl.check_served([[answer(False, 1.0, 0, 1)]])[0]


def test_fit_check_catches_mutated_fit():
    tensors, ref = _tiny_als()
    _, rounds = wl.als_rounds(tensors, 4, 2, 0, None, 0)
    assert wl.check_fits(rounds, ref)[0]
    secs, fit = rounds[0]["hicoo"]
    rounds[0]["hicoo"] = (secs, fit + 1e-6)
    assert not wl.check_fits(rounds, ref)[0]


def _tiny_als():
    from repro.generate import powerlaw_tensor
    from repro.methods.cpd import cp_als
    from repro.parallel import SequentialBackend
    from repro.sptensor.hicoo import HiCOOTensor

    coo = powerlaw_tensor((60, 50, 8), 800, dense_modes=(2,), seed=0)
    ref = cp_als(coo, 4, n_iters=2, tol=0, seed=0, backend=SequentialBackend()).fits[-1]
    return {"coo": coo, "hicoo": HiCOOTensor.from_coo(coo)}, float(ref)


def test_window_check_catches_mutated_window():
    res = IngestBench(IngestConfig(events=20_000, workers=2, seed=3)).run()
    assert wl.check_windows([res])[0]
    values = res.state.values.copy()
    values[0] = np.nextafter(values[0], np.inf)
    res.state = COOTensor(res.state.shape, res.state.indices, values)
    assert not wl.check_windows([res])[0]


# --------------------------------------------------------------------- #
# Layer clock
# --------------------------------------------------------------------- #
class _Target:
    @classmethod
    def build(cls, x):
        return x + 1

    def work(self, x):
        return x * 2


def test_layer_clock_times_and_restores():
    raw_build, raw_work = _Target.__dict__["build"], _Target.__dict__["work"]
    with LayerClock(Tracer()) as clock:
        clock.wrap(_Target, "build", "a")
        clock.wrap(_Target, "work", lambda self, x: "even" if x % 2 == 0 else "odd")
        assert _Target.build(1) == 2 and _Target().work(2) == 4 and _Target().work(3) == 6
    assert _Target.__dict__["build"] is raw_build and _Target.__dict__["work"] is raw_work
    assert dict(clock.calls) == {"a": 1, "even": 1, "odd": 1}
    shares = budget({"a": 1.0, "b": 2.0}, 4.0)
    assert shares == {"a.share": 0.25, "b.share": 0.5, "unattributed.share": 0.25}


# --------------------------------------------------------------------- #
# compare.py
# --------------------------------------------------------------------- #
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize(
    "change, better, verdict",
    [
        ([v * 1.2 for v in PARENT], "higher", "improved"),
        ([v * 0.8 for v in PARENT], "lower", "improved"),
        ([v * 0.85 for v in PARENT], "higher", "regressed"),
        ([v * 1.15 for v in PARENT], "lower", "regressed"),
        (PARENT[::-1], "higher", "no-change"),
        ([v * 0.95 for v in PARENT], "higher", "no-change"),
    ],
)
def test_compare_classifies(change, better, verdict):
    assert compare.classify(PARENT, change, better, 0.1)[0] == verdict


def test_compare_noisy_parent_is_unresolved_unless_change_always_better():
    noisy = [70.0, 130.0, 85.0, 115.0, 100.0, 95.0, 105.0, 75.0, 125.0, 100.0]
    assert compare.classify(noisy, noisy[::-1], "higher", 0.1)[0] == "unresolved"
    above = [131.0 + i for i in range(10)]
    assert compare.classify(noisy, above, "higher", 0.1)[0] != "unresolved"


def test_compare_voids_a_gain_with_more_failures():
    change = [v * 1.2 for v in PARENT]
    verdict, _, _, note = compare.classify(PARENT, change, "higher", 0.1, more_failures=True)
    assert verdict == "no-change" and "failed" in note


def test_compare_reads_run_records(tmp_path):
    def record(seed, value, failed):
        return {"workload": "w", "seed": seed, "trace": False, "result": {
            "correct": True, "attempted": 100, "failed": failed,
            "metrics": {"throughput_per_s": {"value": value, "unit": "1/s"}}}}

    for side, scale, failed in (("parent", 1.0, 0), ("change", 1.3, 1)):
        (tmp_path / side).mkdir()
        for seed, v in enumerate(PARENT):
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(record(seed, v * scale, failed)))
    rows = compare.compare(
        compare.load_runs([tmp_path / "parent"]), compare.load_runs([tmp_path / "change"]), SPEC
    )
    assert [(r.metric, r.verdict) for r in rows] == [("throughput_per_s", "no-change")]
    assert rows[0].gain == pytest.approx(0.3)
    spreads = compare.spread(compare.load_runs([tmp_path / "parent"]), SPEC)
    assert spreads[0]["bound"] == SPEC["end_to_end"][0]["bound"] and spreads[0]["spread"] < 0.01


# --------------------------------------------------------------------- #
# run.py as a program
# --------------------------------------------------------------------- #
def test_run_prints_the_result_last(tmp_path):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ingest-window",
         "--seed", "1", "--seconds", "0.5", "--trace", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and list(last["metrics"]) == E2E
    assert json.loads(out.read_text())["host"]["seed"] == 1


def test_run_fails_without_the_suite(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cpd-als", "--seed", "0",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
