"""Trace exporters: Chrome trace-event JSON, JSON lines, flame summary.

The Chrome format is the JSON-array-of-events schema understood by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``: complete
spans are ``"ph": "X"`` events with microsecond ``ts``/``dur``, instant
markers are ``"ph": "i"``, and ``"ph": "M"`` metadata names each
worker's timeline row.  Timestamps are rebased to the trace start so the
viewer opens at zero.  Counters are not trace events: they live in the
metrics registry and export as Prometheus text or JSON
(:mod:`repro.obs.registry`).
"""

from __future__ import annotations

import json
from typing import IO

from repro.obs.tracer import Trace

#: Schema version stamped into exported traces' ``otherData``.  Version 2
#: dropped the ``"C"`` counter events.
CHROME_TRACE_VERSION = 2


def chrome_trace(trace: Trace) -> dict:
    """The trace as a Chrome trace-event dict (``json.dump``-ready)."""
    t0 = trace.t0
    tid_of: dict[str, int] = {}
    events: list[dict] = []
    for e in trace.events:
        tid_of.setdefault(e.worker, e.tid)
        record = {
            "name": e.name,
            "cat": e.cat,
            "ph": "i" if e.instant else "X",
            "ts": round((e.t0 - t0) * 1e6, 3),
            "pid": 0,
            "tid": e.tid,
            "args": {"slot": e.slot, **e.attrs},
        }
        if e.instant:
            record["s"] = "t"  # thread-scoped instant
        else:
            record["dur"] = round((e.t1 - e.t0) * 1e6, 3)
        events.append(record)
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": worker},
        }
        for worker, tid in sorted(tid_of.items(), key=lambda kv: kv[1])
    ]
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs",
            "version": CHROME_TRACE_VERSION,
            **trace.meta,
        },
    }


def _flatten(trace: Trace) -> list:
    """``trace`` followed by its adopted descendants, depth-first."""
    out = [trace]
    for child in trace.children:
        out.extend(_flatten(child))
    return out


def _abs_start(trace: Trace) -> float:
    """Earliest event start on the shared wall clock (epoch-rebased)."""
    return min(
        (e.t0 for e in trace.events), default=0.0
    ) + trace.epoch_offset_s


def merge_traces(
    root: Trace, children=None, trace_id: str = ""
) -> dict:
    """Merge a parent trace and its child-process traces into one
    Chrome trace-event dict.

    Each trace becomes its own Chrome *process*: pid 0 is ``root``, its
    adopted children (``root.children``, or the explicit ``children``
    list) get pids 1..N in a canonical order, each with ``process_name``
    and per-worker ``thread_name`` metadata.  Timestamps are rebased to
    one shared timeline via each trace's :attr:`Trace.epoch_offset_s`
    wall-clock anchor, so a worker subprocess's kernel spans line up
    under the daemon's request span that spawned them.

    When a child's ``meta["parent_span"]`` names a span id that some
    parent event carries in ``args`` (the executor stamps ``span_id`` on
    ``case`` spans), a Chrome flow arrow (``ph: "s"`` → ``ph: "f"``)
    links the parent span to the child's first event.

    The output is deterministic: the same inputs produce byte-identical
    JSON, making merged traces diffable and goldenable.
    """
    if children is not None:
        kids = [t for child in children for t in _flatten(child)]
    else:
        kids = _flatten(root)[1:]
    # Canonical child order: adoption order is completion order (racy
    # across runs), so sort by stable trace content instead.
    kids.sort(
        key=lambda t: (
            str(t.meta.get("process", "")),
            str(t.meta.get("parent_span", "")),
            _abs_start(t),
        )
    )
    procs = [(0, root)] + [(i + 1, t) for i, t in enumerate(kids)]

    starts = [_abs_start(t) for _, t in procs if t.events]
    t_zero = min(starts) if starts else 0.0

    def ts(raw: float, trace: Trace) -> float:
        return round((raw + trace.epoch_offset_s - t_zero) * 1e6, 3)

    meta_events: list[dict] = []
    events: list[dict] = []
    span_index: dict[str, tuple] = {}
    for pid, trace in procs:
        label = str(
            trace.meta.get("process") or ("main" if pid == 0 else f"proc-{pid}")
        )
        meta_events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })
        tid_of: dict[str, int] = {}
        for e in trace.events:
            tid_of.setdefault(e.worker, e.tid)
            record = {
                "name": e.name,
                "cat": e.cat,
                "ph": "i" if e.instant else "X",
                "ts": ts(e.t0, trace),
                "pid": pid,
                "tid": e.tid,
                "args": {"slot": e.slot, **e.attrs},
            }
            if e.instant:
                record["s"] = "t"
            else:
                record["dur"] = round((e.t1 - e.t0) * 1e6, 3)
            events.append(record)
            span_id = e.attrs.get("span_id")
            if span_id and span_id not in span_index:
                span_index[str(span_id)] = (pid, e.tid, record["ts"])
        meta_events.extend(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": worker},
            }
            for worker, tid in sorted(tid_of.items(), key=lambda kv: kv[1])
        )
    # Flow arrows: child process -> the parent span that spawned it.
    for pid, trace in procs[1:]:
        parent_span = str(trace.meta.get("parent_span", ""))
        origin = span_index.get(parent_span)
        if not parent_span or origin is None or not trace.events:
            continue
        ppid, ptid, pts = origin
        if ppid == pid:
            continue
        first = trace.events[0]
        events.append({
            "name": "spawn",
            "cat": "flow",
            "ph": "s",
            "id": parent_span,
            "ts": pts,
            "pid": ppid,
            "tid": ptid,
        })
        events.append({
            "name": "spawn",
            "cat": "flow",
            "ph": "f",
            "bp": "e",
            "id": parent_span,
            "ts": ts(first.t0, trace),
            "pid": pid,
            "tid": first.tid,
        })
    meta_events.sort(key=lambda m: (m["pid"], m["tid"], m["name"]))
    events.sort(
        key=lambda e: (e["ts"], e["pid"], e["tid"], e["ph"], e["name"])
    )
    return {
        "traceEvents": meta_events + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs",
            "version": CHROME_TRACE_VERSION,
            "processes": len(procs),
            "trace_id": str(trace_id or root.meta.get("trace_id", "")),
            **root.meta,
        },
    }


def save_chrome(trace: "Trace | dict", path: str) -> None:
    """Write Chrome trace-event JSON to ``path``.

    Accepts either a :class:`Trace` (exported single-process via
    :func:`chrome_trace`) or an already-built trace-event dict (e.g.
    from :func:`merge_traces`).
    """
    doc = trace if isinstance(trace, dict) else chrome_trace(trace)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_chrome(path: str) -> dict:
    """Parse an exported Chrome trace (schema sanity checks included)."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path} is not a Chrome trace-event file")
    return doc


def write_jsonl(trace: Trace, fileobj: "IO[str] | str") -> None:
    """One JSON object per event (plus one trailer with the trace meta)."""
    own = isinstance(fileobj, str)
    f = open(fileobj, "w") if own else fileobj
    try:
        t0 = trace.t0
        for e in trace.events:
            f.write(json.dumps({
                "name": e.name,
                "cat": e.cat,
                "worker": e.worker,
                "slot": e.slot,
                "t0_s": round(e.t0 - t0, 9),
                "dur_s": round(e.duration_s, 9),
                "depth": e.depth,
                "path": list(e.path),
                "attrs": e.attrs,
                "instant": e.instant,
            }) + "\n")
        f.write(json.dumps({"meta": trace.meta}) + "\n")
    finally:
        if own:
            f.close()


def flame_summary(trace: Trace, limit: int = 30) -> str:
    """Folded-stack rollup: one line per span path, hottest first.

    Paths are per-thread ancestor chains (``mttkrp;parallel_for``), so the
    output is the text analogue of a flame graph; chunk spans recorded on
    worker threads appear as their own roots.
    """
    agg: dict[tuple, list] = {}
    for e in trace.spans():
        entry = agg.setdefault(e.path, [0, 0.0])
        entry[0] += 1
        entry[1] += e.duration_s
    if not agg:
        return "(no spans recorded)"
    rows = sorted(agg.items(), key=lambda kv: -kv[1][1])[:limit]
    width = max(len(";".join(p)) for p, _ in rows)
    lines = [f"{'span path':<{width}}  {'count':>6} {'total_s':>12} {'mean_s':>12}"]
    for path, (count, total) in rows:
        lines.append(
            f"{';'.join(path):<{width}}  {count:>6d} {total:>12.6f} "
            f"{total / count:>12.6f}"
        )
    if len(agg) > limit:
        lines.append(f"... {len(agg) - limit} more path(s)")
    return "\n".join(lines)
