"""Statistical perf-regression sentinel over run stores and bench files.

``BENCH_*.json`` files and run-store journals record what the suite *did*
measure; nothing so far said whether a new measurement is *worse*.  This
module is that gate: it pairs two measurement sources case-for-case,
summarizes each (kernel, fmt, method) group by the **geometric mean of
the per-case time ratios** (B over A, >1 means B is slower), brackets
that geomean with a seeded **bootstrap confidence interval**
(:func:`repro.metrics.stats.geomean_ratio_ci`), and classifies:

* ``regressed``  — the whole CI sits above the threshold (confidently
  slower; the CLI exits nonzero);
* ``improved``   — the whole CI sits below 1/threshold;
* ``neutral``    — the CI straddles the no-change band;
* ``insufficient-data`` — fewer matched pairs than ``min_pairs``, or no
  usable ratios; never gates.

Sources may be run-store JSONL journals (:mod:`repro.bench.runstore`) or
bench-harness JSON files (``benchmarks/bench_hotpaths.py`` output, e.g.
the committed ``BENCH_kernels.json``); the two kinds are sniffed, so
``repro regress store.jsonl BENCH_kernels.json`` compares a sweep
against the committed baseline.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.bench.runstore import RunStore
from repro.metrics.perf import PerfRecord
from repro.metrics.stats import BootstrapCI, geomean_ratio_ci

REGRESSED = "regressed"
IMPROVED = "improved"
NEUTRAL = "neutral"
INSUFFICIENT = "insufficient-data"

#: Bench-harness entry keys that are measurements or host facts, not
#: identity tags.
_BENCH_VALUE_KEYS = {
    "median_s", "min_s", "reps", "compile_s",
    "imbalance", "busy_frac", "eff_bw_gbs", "bound_fraction",
    "host_cpus", "oversubscribed",
}


class RegressError(ValueError):
    """The two sources cannot be compared (no overlap, unreadable file)."""


@dataclass(frozen=True)
class Measurement:
    """One comparable timing: who it is, which group it gates, seconds."""

    identity: tuple
    group: tuple
    value: float


def _store_measurements(path: str) -> list:
    """Measurements out of a run-store journal.

    Identity is the sweep cell (tensor, kernel, fmt, platform); the time
    is the measured host wall-clock when the case recorded one, else the
    modeled platform time (deterministic, so self-comparison is exact).
    """
    state = RunStore(path).load()
    out = []
    for line in state.records.values():
        rec = PerfRecord.from_dict(line["record"])
        value = rec.host_seconds if rec.host_seconds > 0 else rec.seconds
        method = rec.extra.get("method", "")
        out.append(
            Measurement(
                identity=(rec.tensor, rec.kernel, rec.fmt, rec.platform),
                group=(rec.kernel, rec.fmt, str(method)),
                value=float(value),
            )
        )
    return out


def _bench_measurements(path: str, data: dict) -> list:
    """Measurements out of a bench-harness JSON (``BENCH_*.json``)."""
    out = []
    for entry in data.get("results", []):
        tags = {
            str(k): entry[k] for k in entry if k not in _BENCH_VALUE_KEYS
        }
        value = entry.get("median_s")
        if value is None:
            continue
        out.append(
            Measurement(
                identity=tuple(sorted((k, str(v)) for k, v in tags.items())),
                group=(
                    str(entry.get("kernel", "")),
                    str(entry.get("format", entry.get("fmt", ""))),
                    str(entry.get("method", "")),
                ),
                value=float(value),
            )
        )
    return out


def load_measurements(path: str) -> list:
    """Load a measurement source, sniffing run-store vs bench JSON.

    A file that parses as one JSON object with a ``results`` list is a
    bench-harness file; anything else (JSONL, or a single journal line)
    is read as a run store.
    """
    if not os.path.exists(path):
        raise RegressError(f"no such measurement source: {path}")
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "results" in data:
        return _bench_measurements(path, data)
    measurements = _store_measurements(path)
    if not measurements:
        raise RegressError(f"{path}: no measurements (empty or wrong format)")
    return measurements


@dataclass(frozen=True)
class GroupComparison:
    """One (kernel, fmt, method) group's verdict."""

    group: tuple
    n_pairs: int
    n_dropped: int
    ci: Optional[BootstrapCI]
    classification: str

    @property
    def label(self) -> str:
        kernel, fmt, method = self.group
        return "/".join(p for p in (kernel, fmt, method) if p)

    def as_dict(self) -> dict:
        return {
            "group": list(self.group),
            "n_pairs": self.n_pairs,
            "n_dropped": self.n_dropped,
            "ci": self.ci.as_dict() if self.ci is not None else None,
            "classification": self.classification,
        }


@dataclass(frozen=True)
class RegressionReport:
    """All group verdicts of one A-vs-B comparison."""

    a_label: str
    b_label: str
    threshold: float
    confidence: float
    groups: tuple
    #: Identities present in only one source (not compared).
    unmatched_a: int = 0
    unmatched_b: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def regressions(self) -> list:
        return [g for g in self.groups if g.classification == REGRESSED]

    @property
    def exit_code(self) -> int:
        """Nonzero iff at least one group confidently regressed."""
        return 1 if self.regressions else 0

    def counts(self) -> dict:
        out = {REGRESSED: 0, IMPROVED: 0, NEUTRAL: 0, INSUFFICIENT: 0}
        for g in self.groups:
            out[g.classification] += 1
        return out

    def as_dict(self) -> dict:
        return {
            "a": self.a_label,
            "b": self.b_label,
            "threshold": self.threshold,
            "confidence": self.confidence,
            "groups": [g.as_dict() for g in self.groups],
            "counts": self.counts(),
            "unmatched_a": self.unmatched_a,
            "unmatched_b": self.unmatched_b,
            "exit_code": self.exit_code,
        }

    def render(self) -> str:
        lines = [
            f"perf regression check: {self.a_label} -> {self.b_label}",
            f"  ratio = B/A time per matched case, geomean per group; "
            f"threshold {self.threshold:g}, {self.confidence:.0%} bootstrap CI",
            "",
            f"  {'group':<28} {'pairs':>5} {'ratio':>8} "
            f"{'ci_lo':>8} {'ci_hi':>8}  verdict",
        ]
        for g in self.groups:
            if g.ci is None:
                lines.append(
                    f"  {g.label:<28} {g.n_pairs:>5d} {'-':>8} "
                    f"{'-':>8} {'-':>8}  {g.classification}"
                )
            else:
                lines.append(
                    f"  {g.label:<28} {g.n_pairs:>5d} {g.ci.estimate:>8.3f} "
                    f"{g.ci.lo:>8.3f} {g.ci.hi:>8.3f}  {g.classification}"
                )
        c = self.counts()
        lines.append("")
        lines.append(
            f"  {c[REGRESSED]} regressed, {c[IMPROVED]} improved, "
            f"{c[NEUTRAL]} neutral, {c[INSUFFICIENT]} insufficient-data"
        )
        if self.unmatched_a or self.unmatched_b:
            lines.append(
                f"  unmatched cases: {self.unmatched_a} only in A, "
                f"{self.unmatched_b} only in B"
            )
        return "\n".join(lines)


def classify(
    ci: Optional[BootstrapCI],
    n_pairs: int,
    threshold: float,
    min_pairs: int,
) -> str:
    """Verdict of one group from its ratio CI and pair count."""
    if ci is None or n_pairs < min_pairs:
        return INSUFFICIENT
    if ci.lo > threshold:
        return REGRESSED
    if ci.hi < 1.0 / threshold:
        return IMPROVED
    return NEUTRAL


def compare_measurements(
    a: list,
    b: list,
    *,
    a_label: str = "A",
    b_label: str = "B",
    threshold: float = 1.05,
    confidence: float = 0.95,
    resamples: int = 1000,
    min_pairs: int = 2,
    seed: int = 0,
) -> RegressionReport:
    """Pair two measurement lists by identity and judge each group.

    Within each source, duplicate identities keep the last measurement
    (matching run-store later-line-wins semantics).
    """
    index_a = {m.identity: m for m in a}
    index_b = {m.identity: m for m in b}
    shared = sorted(set(index_a) & set(index_b))
    if not shared:
        raise RegressError(
            f"no common cases between {a_label} ({len(index_a)} cases) "
            f"and {b_label} ({len(index_b)} cases)"
        )
    ratios: dict[tuple, list] = {}
    dropped: dict[tuple, int] = {}
    for identity in shared:
        ma, mb = index_a[identity], index_b[identity]
        group = mb.group
        if ma.value > 0 and mb.value > 0:
            ratios.setdefault(group, []).append(mb.value / ma.value)
        else:
            dropped[group] = dropped.get(group, 0) + 1
            ratios.setdefault(group, [])
    groups = []
    for group in sorted(ratios):
        vals = ratios[group]
        ci = geomean_ratio_ci(
            vals, resamples=resamples, confidence=confidence, seed=seed
        )
        groups.append(
            GroupComparison(
                group=group,
                n_pairs=len(vals),
                n_dropped=dropped.get(group, 0),
                ci=ci,
                classification=classify(ci, len(vals), threshold, min_pairs),
            )
        )
    return RegressionReport(
        a_label=a_label,
        b_label=b_label,
        threshold=float(threshold),
        confidence=float(confidence),
        groups=tuple(groups),
        unmatched_a=len(index_a) - len(shared),
        unmatched_b=len(index_b) - len(shared),
    )


def compare_paths(
    a_path: str,
    b_path: str,
    **kwargs,
) -> RegressionReport:
    """Load and compare two measurement sources (stores or bench JSON)."""
    kwargs.setdefault("a_label", a_path)
    kwargs.setdefault("b_label", b_path)
    return compare_measurements(
        load_measurements(a_path), load_measurements(b_path), **kwargs
    )
