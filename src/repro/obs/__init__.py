"""Observability layer: span tracing, a metrics registry, and analytics.

One telemetry model, two stores with disjoint jobs:

* **spans** — enable with ``Tracer().install()`` (or ``with Tracer() as
  t: ...``); the backends, kernels, GPU cost model and executor record
  timed spans and instants into the installed tracer.  Disabled (the
  default), every span site costs one branch on the process-global null
  tracer.
* **counters and gauges** — always on, written to the process-global
  :class:`MetricsRegistry` (:func:`get_metrics`) with labels, and dumped
  as Prometheus text or JSON (``repro metrics``, ``sweep --metrics``).
"""

from repro.obs.analytics import (
    TraceStats,
    WorkerStats,
    analyze,
    imbalance_factor,
    worker_busy,
)
from repro.obs.attribution import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    RooflineAttribution,
    attach_to_trace,
    attribute,
    classify_boundedness,
    effective_bandwidth_gbs,
)
from repro.obs.context import (
    ContextError,
    TraceContext,
    activate_context,
    current_context,
    derive_span_id,
    install_context,
    new_trace_id,
)
from repro.obs.export import (
    chrome_trace,
    flame_summary,
    load_chrome,
    merge_traces,
    save_chrome,
    write_jsonl,
)
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.registry import (
    MetricsError,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.tracer import (
    CAT_CASE,
    CAT_CHUNK,
    CAT_GPU,
    CAT_KERNEL,
    CAT_REGION,
    CAT_REQUEST,
    CAT_SCHED,
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Trace,
    Tracer,
    current_tracer,
    scoped_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "scoped_tracer",
    "Trace",
    "SpanEvent",
    "CAT_REGION",
    "CAT_CASE",
    "CAT_CHUNK",
    "CAT_KERNEL",
    "CAT_GPU",
    "CAT_REQUEST",
    "CAT_SCHED",
    "TraceContext",
    "ContextError",
    "new_trace_id",
    "derive_span_id",
    "current_context",
    "activate_context",
    "install_context",
    "get_logger",
    "configure_logging",
    "TraceStats",
    "WorkerStats",
    "analyze",
    "worker_busy",
    "imbalance_factor",
    "RooflineAttribution",
    "attribute",
    "attach_to_trace",
    "classify_boundedness",
    "effective_bandwidth_gbs",
    "MEMORY_BOUND",
    "COMPUTE_BOUND",
    "MetricsRegistry",
    "MetricsError",
    "get_metrics",
    "set_metrics",
    "chrome_trace",
    "merge_traces",
    "save_chrome",
    "load_chrome",
    "write_jsonl",
    "flame_summary",
]
