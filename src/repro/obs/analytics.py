"""Fold a recorded trace into the paper's utilization metrics.

The paper's load-balance discussion (Observations 1, 4) compares the
busiest worker against the mean — a ratio of 1.0 is a perfectly balanced
loop, N means one worker did N times its fair share and the others waited.
:func:`analyze` derives that and its companions from the chunk spans the
backends record:

* **per-worker busy time** — summed chunk-span durations per worker slot;
* **load-imbalance factor** — max busy / mean busy across workers;
* **chunk imbalance** — max / mean single-chunk duration (granularity
  skew, independent of which worker drew the long chunk);
* **busy fraction** — total busy time over ``nworkers x wall``: the share
  of the region's worker-seconds actually spent in chunk bodies;
* **critical-path estimate** — the busiest worker's chunk time plus the
  wall clock spent outside any parallel region (serial pre/post
  processing): a lower bound on the traced interval at infinite width.

Counts (non-zeros processed, flops, plan builds, modeled GPU launches) are not part of the trace: they live in the metrics registry
(:func:`repro.obs.registry.get_metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracer import CAT_CHUNK, CAT_REGION, Trace


@dataclass(frozen=True)
class WorkerStats:
    """Chunk-execution totals of one worker slot."""

    worker: str
    busy_s: float
    nchunks: int
    max_chunk_s: float

    @property
    def mean_chunk_s(self) -> float:
        return self.busy_s / self.nchunks if self.nchunks else 0.0


@dataclass(frozen=True)
class TraceStats:
    """Derived utilization metrics of one trace (or one traced kernel)."""

    wall_s: float
    nworkers: int
    nchunks: int
    total_busy_s: float
    per_worker: tuple
    imbalance: float
    chunk_imbalance: float
    busy_frac: float
    critical_path_s: float

    def as_dict(self) -> dict:
        """JSON-friendly form for ``PerfRecord.extra`` / result files."""
        return {
            "wall_s": self.wall_s,
            "nworkers": self.nworkers,
            "nchunks": self.nchunks,
            "total_busy_s": self.total_busy_s,
            "imbalance": self.imbalance,
            "chunk_imbalance": self.chunk_imbalance,
            "busy_frac": self.busy_frac,
            "critical_path_s": self.critical_path_s,
            "busy_per_worker": {w.worker: w.busy_s for w in self.per_worker},
        }

    def render(self) -> str:
        """The ``repro trace`` report: busy table + derived factors."""
        lines = ["per-worker busy time"]
        lines.append(f"  {'worker':<12} {'busy_s':>10} {'chunks':>7} "
                     f"{'max_chunk_s':>12} {'share':>7}")
        total = self.total_busy_s or 1.0
        for w in self.per_worker:
            lines.append(
                f"  {w.worker:<12} {w.busy_s:>10.6f} {w.nchunks:>7d} "
                f"{w.max_chunk_s:>12.6f} {w.busy_s / total:>6.1%}"
            )
        lines.append("")
        lines.append(f"wall clock          {self.wall_s:.6f} s")
        lines.append(f"load imbalance      {self.imbalance:.3f}  (max/mean worker busy)")
        lines.append(f"chunk imbalance     {self.chunk_imbalance:.3f}  (max/mean chunk time)")
        lines.append(f"busy fraction       {self.busy_frac:.1%}  of {self.nworkers} worker(s) x wall")
        lines.append(f"critical path est.  {self.critical_path_s:.6f} s")
        return "\n".join(lines)


def worker_busy(trace: Trace) -> dict:
    """``worker label -> summed chunk-span seconds``."""
    busy: dict[str, float] = {}
    for e in trace.spans(CAT_CHUNK):
        busy[e.worker] = busy.get(e.worker, 0.0) + e.duration_s
    return busy


def imbalance_factor(busy: dict) -> float:
    """Max over mean of the per-worker busy times (1.0 when balanced)."""
    values = [v for v in busy.values() if v > 0.0]
    if not values:
        return 1.0
    mean = sum(values) / len(values)
    return max(values) / mean if mean > 0 else 1.0


def _merged_duration(intervals) -> float:
    """Total length of the union of (t0, t1) intervals."""
    total, end = 0.0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def analyze(trace: Trace) -> TraceStats:
    """Fold chunk and region spans into :class:`TraceStats`."""
    chunks = trace.spans(CAT_CHUNK)
    busy = worker_busy(trace)
    per_worker = []
    for worker in sorted(busy):
        mine = [e for e in chunks if e.worker == worker]
        per_worker.append(
            WorkerStats(
                worker=worker,
                busy_s=busy[worker],
                nchunks=len(mine),
                max_chunk_s=max((e.duration_s for e in mine), default=0.0),
            )
        )
    total_busy = sum(busy.values())
    wall = trace.wall_s
    nworkers = max(len(busy), 1)
    durations = [e.duration_s for e in chunks]
    chunk_imb = 1.0
    if durations:
        mean = sum(durations) / len(durations)
        chunk_imb = max(durations) / mean if mean > 0 else 1.0
    # Serial time: the traced interval not covered by any parallel region.
    region_s = _merged_duration(
        [(e.t0, e.t1) for e in trace.spans(CAT_REGION)]
    )
    serial_s = max(0.0, wall - region_s)
    critical = max(busy.values(), default=0.0) + serial_s
    return TraceStats(
        wall_s=wall,
        nworkers=nworkers,
        nchunks=len(chunks),
        total_busy_s=total_busy,
        per_worker=tuple(per_worker),
        imbalance=imbalance_factor(busy),
        chunk_imbalance=chunk_imb,
        busy_frac=(total_busy / (nworkers * wall)) if wall > 0 else 0.0,
        critical_path_s=critical,
    )
