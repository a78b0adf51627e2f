"""Process-global metrics registry with Prometheus export.

Traces answer "what happened inside *this* kernel invocation" and hold
spans only; every count and level lives here — monotonically growing
counters, level gauges and latency histograms that survive across cases
and can be scraped or dumped while a sweep is still running:

* :class:`MetricsRegistry` — counters, gauges and histograms, each with
  a **label set** (``kernel="mttkrp", fmt="hicoo"``), Prometheus style.
  Each label set holds one value, written under the registry lock, so
  writes from any thread — a backend chunk body included — never lose
  an update.  A gauge is a level: the last write wins.
* exporters — :meth:`MetricsRegistry.render_prometheus` (text
  exposition format) and :meth:`MetricsRegistry.as_dict` (JSON), both
  deterministic (sorted names and label sets) so goldens can pin them.
* a process-global default (:func:`get_metrics` / :func:`set_metrics`)
  written unconditionally by the kernels, the plan cache, the GPU
  cost model, the executor, ingestion and the serve daemon, and dumped
  by the ``repro metrics`` CLI.
"""

from __future__ import annotations

import math
import threading
from collections import deque


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Default histogram buckets (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Sliding window of raw observations kept per histogram label set, so
#: quantiles (p50/p95/p99) reflect *recent* latency rather than bucket
#: interpolation over the whole process lifetime.
RECENT_WINDOW = 1024


class MetricsError(ValueError):
    """A metric used inconsistently (kind clash, bad buckets)."""


class _Metric:
    """One named metric: kind, one value per label set."""

    __slots__ = ("name", "kind", "buckets", "series", "recent")

    def __init__(self, name: str, kind: str, buckets=None):
        self.name = name
        self.kind = kind
        self.buckets = buckets
        #: label_key -> value (counter/gauge) or
        #: ``[bucket_counts..., count, total]`` list (histogram).
        self.series: dict[tuple, "float | list"] = {}
        #: label_key -> bounded deque of raw observations (histograms
        #: only) feeding quantile summaries.
        self.recent: dict[tuple, deque] = {}


class MetricsRegistry:
    """Labelled counters/gauges/histograms; every write takes one lock."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration -------------------------------------------------- #
    def _metric(self, name: str, kind: str, buckets=None) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    if kind == HISTOGRAM:
                        buckets = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
                        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
                            raise MetricsError(
                                f"histogram {name!r} buckets must be strictly "
                                f"increasing: {buckets}"
                            )
                    metric = _Metric(name, kind, buckets)
                    self._metrics[name] = metric
        if metric.kind != kind:
            raise MetricsError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    # -- writes (resolve the metric first: the lock is not re-entrant) -- #
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to the counter ``name`` for this label set."""
        metric = self._metric(name, COUNTER)
        lk = _label_key(labels)
        with self._lock:
            metric.series[lk] = metric.series.get(lk, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge for this label set; the last write wins."""
        metric = self._metric(name, GAUGE)
        lk = _label_key(labels)
        with self._lock:
            metric.series[lk] = float(value)

    def observe(self, name: str, value: float, buckets=None, **labels) -> None:
        """Record one observation into the histogram ``name``.

        ``buckets`` (upper bounds, strictly increasing) only takes
        effect on the histogram's first use.
        """
        metric = self._metric(name, HISTOGRAM, buckets)
        lk = _label_key(labels)
        value = float(value)
        bucket = next(
            (i for i, bound in enumerate(metric.buckets) if value <= bound), None
        )
        with self._lock:
            cell = self._histogram_cell(metric, lk)
            if bucket is not None:
                cell[bucket] += 1
            cell[-2] += 1
            cell[-1] += value
            recent = metric.recent.get(lk)
            if recent is None:
                recent = metric.recent[lk] = deque(maxlen=RECENT_WINDOW)
            recent.append(value)

    @staticmethod
    def _histogram_cell(metric: _Metric, lk: tuple) -> list:
        """The label set's ``[bucket counts..., count, sum]`` (lock held)."""
        cell = metric.series.get(lk)
        if cell is None:
            cell = metric.series[lk] = [0] * len(metric.buckets) + [0, 0.0]
        return cell

    # -- cross-process ingestion --------------------------------------- #
    def absorb_dict(self, dump: dict, **labels) -> None:
        """Fold another registry's :meth:`as_dict` export into this one.

        This is how worker-subprocess metrics come home: the worker
        dumps its registry into the case verdict and the executor
        absorbs it here, so ``exec.*`` counters and kernel histograms
        survive process isolation.  Counters add, gauges overwrite,
        histogram bucket/count/sum totals merge (mismatched bucket
        bounds degrade to count/sum only).  Raw observation windows are
        not carried across, so absorbed-only histograms report ``None``
        quantiles.  ``labels`` tag every absorbed series.
        """
        for name, series in (dump.get("counters") or {}).items():
            for s in series:
                merged = {**(s.get("labels") or {}), **labels}
                self.inc(name, float(s.get("value", 0.0)), **merged)
        for name, series in (dump.get("gauges") or {}).items():
            for s in series:
                merged = {**(s.get("labels") or {}), **labels}
                self.set_gauge(name, float(s.get("value", 0.0)), **merged)
        for name, series in (dump.get("histograms") or {}).items():
            for s in series:
                self._absorb_histogram(name, s, labels)

    def _absorb_histogram(self, name: str, snap: dict, extra_labels: dict) -> None:
        buckets = snap.get("buckets") or {}
        bounds = sorted(
            float(le) for le in buckets if le != "+Inf"
        )
        metric = self._metric(name, HISTOGRAM, bounds or None)
        lk = _label_key({**(snap.get("labels") or {}), **extra_labels})
        # De-cumulate the exported bucket counts back into per-bucket
        # increments; bounds absent from the dump contribute nothing.
        increments, previous = [], 0
        for i, bound in enumerate(metric.buckets):
            cumulative = buckets.get(_le(bound))
            if cumulative is None:
                continue
            increments.append((i, int(cumulative) - previous))
            previous = int(cumulative)
        with self._lock:
            cell = self._histogram_cell(metric, lk)
            for i, n in increments:
                cell[i] += n
            cell[-2] += int(snap.get("count", 0))
            cell[-1] += float(snap.get("sum", 0.0))

    # -- reads --------------------------------------------------------- #
    def _snapshot(self, metric: _Metric) -> dict:
        """label_key -> value, copied under the lock."""
        with self._lock:
            if metric.kind == HISTOGRAM:
                return {lk: list(cell) for lk, cell in metric.series.items()}
            return dict(metric.series)

    def counter_value(self, name: str, **labels) -> float:
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        return self._snapshot(metric).get(_label_key(labels), 0.0)

    def gauge_value(self, name: str, **labels) -> float:
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        return self._snapshot(metric).get(_label_key(labels), 0.0)

    def counter_totals(self, prefix: "str | None" = None) -> dict:
        """``name -> total`` for counters, summed across label sets.

        ``prefix`` filters by name prefix (e.g. ``"serve."``) — the
        serve daemon's ``status`` op reports its counters this way.
        """
        out = {}
        with self._lock:
            metrics = dict(self._metrics)
        for name in sorted(metrics):
            metric = metrics[name]
            if metric.kind != COUNTER:
                continue
            if prefix and not name.startswith(prefix):
                continue
            out[name] = float(sum(self._snapshot(metric).values()))
        return out

    def histogram_snapshot(self, name: str, **labels) -> dict:
        """``{"count": n, "sum": s, "buckets": {le: cumulative_count}}``."""
        metric = self._metrics.get(name)
        if metric is None or metric.kind != HISTOGRAM:
            return {"count": 0, "sum": 0.0, "buckets": {}}
        agg = self._snapshot(metric).get(_label_key(labels))
        if agg is None:
            return {"count": 0, "sum": 0.0, "buckets": {}}
        buckets, cumulative = {}, 0
        for bound, n in zip(metric.buckets, agg):
            cumulative += n
            buckets[_le(bound)] = cumulative
        buckets["+Inf"] = agg[-2]
        return {"count": int(agg[-2]), "sum": float(agg[-1]), "buckets": buckets}

    def histogram_quantiles(self, name: str, qs=None, **labels) -> "dict | None":
        """Empirical quantiles over the recent-observation window.

        Returns ``{"p50": ..., "p95": ..., "p99": ...}`` (or the
        requested ``qs``) from the raw observations retained for the
        histogram, or ``None`` when there is no data — the same
        no-fake-zeros convention as :func:`repro.metrics.stats`.  With no
        ``labels`` the windows of every label set are pooled; with
        labels only that exact series is summarized.
        """
        from repro.metrics.stats import percentiles

        metric = self._metrics.get(name)
        if metric is None or metric.kind != HISTOGRAM:
            return None
        with self._lock:
            if labels:
                windows = [tuple(metric.recent.get(_label_key(labels), ()))]
            else:
                windows = [
                    tuple(metric.recent[lk]) for lk in sorted(metric.recent)
                ]
        values = [v for window in windows for v in window]
        if qs is None:
            return percentiles(values)
        return percentiles(values, qs)

    # -- exporters ----------------------------------------------------- #
    def as_dict(self) -> dict:
        """Deterministic JSON form: kind -> name -> list of label series."""
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            metrics = dict(self._metrics)
        for name in sorted(metrics):
            metric = metrics[name]
            agg = self._snapshot(metric)
            series = []
            for lk in sorted(agg):
                labels = dict(lk)
                if metric.kind == HISTOGRAM:
                    snap = self.histogram_snapshot(name, **labels)
                    quantiles = self.histogram_quantiles(name, **labels)
                    series.append(
                        {"labels": labels, **snap, "quantiles": quantiles}
                    )
                else:
                    series.append({"labels": labels, "value": agg[lk]})
            key = {COUNTER: "counters", GAUGE: "gauges", HISTOGRAM: "histograms"}
            out[key[metric.kind]][name] = series
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines = []
        with self._lock:
            metrics = dict(self._metrics)
        for name in sorted(metrics):
            metric = metrics[name]
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} {metric.kind}")
            agg = self._snapshot(metric)
            qlines = []
            for lk in sorted(agg):
                labels = dict(lk)
                if metric.kind == HISTOGRAM:
                    snap = self.histogram_snapshot(name, **labels)
                    for le, n in snap["buckets"].items():
                        lines.append(
                            f"{pname}_bucket{_prom_labels(labels, le=le)} {n}"
                        )
                    lines.append(
                        f"{pname}_sum{_prom_labels(labels)} {_prom_value(snap['sum'])}"
                    )
                    lines.append(
                        f"{pname}_count{_prom_labels(labels)} {snap['count']}"
                    )
                    quantiles = self.histogram_quantiles(name, **labels)
                    for qkey in sorted(
                        quantiles or (), key=lambda k: float(k[1:])
                    ):
                        qlabels = {
                            **labels,
                            "quantile": f"{float(qkey[1:]) / 100.0:g}",
                        }
                        qlines.append(
                            f"{pname}_quantile{_prom_labels(qlabels)} "
                            f"{_prom_value(quantiles[qkey])}"
                        )
                else:
                    lines.append(
                        f"{pname}{_prom_labels(labels)} {_prom_value(agg[lk])}"
                    )
            if qlines:
                # Quantiles are derived gauges, exported as a sibling
                # metric so the histogram series itself stays canonical.
                lines.append(f"# TYPE {pname}_quantile gauge")
                lines.extend(qlines)
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        """Drop every metric (tests and fresh sweep invocations)."""
        with self._lock:
            self._metrics.clear()


def _le(bound: float) -> str:
    """Prometheus ``le`` label for a bucket bound (no trailing zeros)."""
    if bound == math.inf:
        return "+Inf"
    text = f"{bound:.10f}".rstrip("0").rstrip(".")
    return text or "0"


def _prom_name(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "_:") else "_" for c in name)


def _prom_escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_labels(labels: dict, le: "str | None" = None) -> str:
    items = sorted(labels.items())
    if le is not None:
        items.append(("le", le))
    if not items:
        return ""
    body = ",".join(f'{_prom_name(k)}="{_prom_escape(str(v))}"' for k, v in items)
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: The process-global registry fed by the executor/runner by default.
_GLOBAL = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry."""
    return _GLOBAL


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous
