"""Compare end-to-end benchmark runs of a parent and a change.

    python3 benchmarks/e2e/compare.py PARENT CHANGE
    python3 benchmarks/e2e/compare.py --spread RUNS

Each argument is a directory of result files written by ``run.py --out``
(or one such file).  Only untraced runs count.  Every (workload,
end-to-end metric) row gets one verdict, with the bound taken from
``BENCHMARK.json``:

* ``improved`` - the change wins at least 9 of every 10 pairs (ties count
  for neither), its median beats the parent's by more than the distance
  between the parent's quartiles, and the workload fails no larger share
  of its operations than at the parent;
* ``regressed`` - the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` - neither, and the parent's own spread (quartile distance
  over median) is wider than the bound, unless every change run reads
  better than every parent run;
* ``no-change`` - otherwise.

Runs pair up by seed order.  ``--spread`` reports one set's quartile
spread per row next to its bound instead (the noise calibration).  The
exit code is 1 when a row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.metrics.stats import percentiles  # noqa: E402

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    verdict: str
    parent_median: float
    parent_q1: float
    parent_q3: float
    change_median: float
    #: Relative change of the median, positive when the change is better.
    gain: float
    wins: int
    pairs: int
    note: str = ""


def quartiles(values) -> tuple:
    q = percentiles(values, (25, 50, 75))
    return q["p25"], q["p50"], q["p75"]


def load_runs(paths) -> list:
    """Untraced run records from result files or directories of them."""
    docs = []
    for path in map(Path, paths):
        for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
            with open(file) as f:
                doc = json.load(f)
            docs.extend(d for d in (doc if isinstance(doc, list) else [doc]) if not d["trace"])
    return docs


def by_row(docs) -> dict:
    """(workload, metric) -> values in seed order."""
    rows: dict = {}
    for doc in sorted(docs, key=lambda d: d["seed"]):
        for metric, m in doc["result"]["metrics"].items():
            rows.setdefault((doc["workload"], metric), []).append(m["value"])
    return rows


def failed_share(docs, workload: str) -> float:
    runs = [d["result"] for d in docs if d["workload"] == workload]
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def classify(parent, change, better: str, bound: float, more_failures: bool = False) -> tuple:
    """``(verdict, wins, pairs, note)`` of one row (rules in the module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, pm, q3 = quartiles(parent)
    cm = quartiles(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (cm - pm)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        if not more_failures:
            return "improved", wins, len(pairs), ""
        return "no-change", wins, len(pairs), "gain void: more operations failed"
    if -gain > bound * abs(pm):
        return "regressed", wins, len(pairs), ""
    if (q3 - q1) > bound * abs(pm) and not all_better:
        return "unresolved", wins, len(pairs), "parent spread wider than the bound"
    return "no-change", wins, len(pairs), ""


def compare(parent_docs, change_docs, spec) -> list:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = by_row(parent_docs), by_row(change_docs)
    rows = []
    for (workload, metric), pvals in sorted(parent.items()):
        cvals = change.get((workload, metric))
        if not cvals or metric not in metrics:
            continue
        m = metrics[metric]
        more_failures = failed_share(change_docs, workload) > failed_share(parent_docs, workload)
        verdict, wins, pairs, note = classify(pvals, cvals, m["better"], m["bound"], more_failures)
        q1, pm, q3 = quartiles(pvals)
        cm = quartiles(cvals)[1]
        sign = 1.0 if m["better"] == "higher" else -1.0
        rows.append(Row(
            workload, metric, verdict, pm, q1, q3, cm,
            sign * (cm - pm) / abs(pm), wins, pairs, note,
        ))
    return rows


def spread(docs, spec) -> list:
    """Per row: median, quartile spread over the median, and the bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = []
    for (workload, metric), values in sorted(by_row(docs).items()):
        q1, med, q3 = quartiles(values)
        out.append({
            "workload": workload, "metric": metric, "runs": len(values),
            "median": med, "spread": (q3 - q1) / abs(med), "bound": bounds.get(metric),
        })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="*", help="PARENT CHANGE")
    ap.add_argument("--spread", nargs="+", metavar="RUNS", help="report one set's spread")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.spread:
        for r in spread(load_runs(args.spread), spec):
            flag = "" if r["bound"] is None or r["spread"] <= r["bound"] / 3 else "  (over a third of the bound)"
            print(f"{r['workload']:<18} {r['metric']:<17} n={r['runs']:<3} median {r['median']:<12.6g} "
                  f"spread {r['spread']:.4f} bound {r['bound']}{flag}")
        return 0
    if len(args.runs) != 2:
        ap.error("give PARENT and CHANGE, or --spread RUNS")
    rows = compare(load_runs([args.runs[0]]), load_runs([args.runs[1]]), spec)
    for r in rows:
        print(f"{r.workload:<18} {r.metric:<17} {r.verdict:<10} parent {r.parent_median:.6g} "
              f"[{r.parent_q1:.6g}, {r.parent_q3:.6g}] change {r.change_median:.6g} "
              f"gain {100 * r.gain:+.1f}% wins {r.wins}/{r.pairs} {r.note}".rstrip())
    return 1 if any(r.verdict == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
