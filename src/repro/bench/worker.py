"""Long-lived sweep worker: run cases read from stdin, one verdict each.

Spawned by the executor's worker pool (:mod:`repro.bench.pool`) as

    python -m repro.bench.worker

Each stdin line is one JSON payload ``{"case": <SweepCase.to_dict()>,
"attempt": n, "faults": {...}}`` plus an optional ``"trace"``
trace-context dict.  For each, the worker writes one verdict line —
``{"ok": true, "record": ...}`` or ``{"ok": false, "error": ...}`` — and
keeps going: a *handled* kernel failure is data, not a crash.  Only a
hard death (injected ``kill_attempts`` fault, OOM, segfault) ends the
stream without a verdict, which the parent classifies as a crash; an
injected hang never answers and is killed at the parent's deadline.
The worker exits 0 on stdin EOF, so it never outlives its parent.

Frames go to a private duplicate of fd 1, and fd 1 itself is pointed at
stderr, so a stray ``print`` (or a C library write) in a kernel lands in
the stderr tail the parent keeps for crash details, never inside a
verdict frame.

Prepared :class:`~repro.bench.runner.TensorBundle` s stay resident for
the worker's life in one :class:`~repro.bench.executor.BundleCache`, the
class every inline :class:`~repro.bench.executor.CaseRunner` also keeps,
with the same :data:`~repro.bench.executor.BUNDLE_CACHE_BYTES` budget:
the cases of one tensor materialize and prepare it once per worker.

When a trace context rides in (payload ``trace`` key), the case runs
under an installed :class:`~repro.obs.tracer.Tracer` carrying the
request's trace_id, and the verdict additionally ships ``"trace"`` (the
frozen span buffer, :meth:`Trace.to_dict`) and ``"metrics"`` (the
registry dump of this case alone — it is cleared before every case)
home for the parent to fold in.  Without a context the verdict has no
telemetry keys.
"""

from __future__ import annotations

import json
import os
import sys
import time


def run_payload(payload: dict, bundles) -> dict:
    """Run one case payload to its verdict dict (the worker's core);
    ``bundles`` is the worker's :class:`~repro.bench.executor.BundleCache`."""
    from repro.bench.executor import execute_case, match_fault
    from repro.bench.runner import SweepCase
    from repro.obs.context import TraceContext, install_context
    from repro.obs.registry import get_metrics

    case = SweepCase.from_dict(payload["case"])
    attempt = int(payload.get("attempt", 0))
    faults = payload.get("faults") or {}
    fault = match_fault(case, faults)
    if attempt < int(fault.get("kill_attempts", 0)):
        # Simulated hard worker death: no verdict, nonzero exit, no
        # cleanup — exactly what the parent's crash path must absorb.
        os._exit(13)
    if attempt < int(fault.get("hang_attempts", 0)):
        # Simulated hang; the parent kills us at its per-case deadline.
        time.sleep(float(fault.get("hang_s", 3600.0)))

    # Metrics are always on: without a reset, an untraced case's counts
    # would leak into the next traced verdict's dump.
    get_metrics().clear()
    raw_context = payload.get("trace")
    tracer = None
    try:
        if raw_context:
            from repro.obs.tracer import Tracer

            context = TraceContext.from_dict(raw_context)
            tracer = Tracer(
                trace_id=context.trace_id,
                meta={
                    "process": f"worker {case.fingerprint}",
                    "parent_span": context.parent_span,
                    "fingerprint": case.fingerprint,
                },
            ).install()
            install_context(context)
        t0 = time.perf_counter()
        try:
            record = execute_case(
                case, attempt=attempt, faults=faults, prepare=bundles.get
            )
        except Exception as exc:  # noqa: BLE001 - the verdict carries it
            verdict = {
                "ok": False,
                "fingerprint": case.fingerprint,
                "error": f"{type(exc).__name__}: {exc}",
                "elapsed_s": time.perf_counter() - t0,
            }
        else:
            verdict = {
                "ok": True,
                "fingerprint": case.fingerprint,
                "seed": case.case_seed,
                "record": record.to_dict(),
                "elapsed_s": time.perf_counter() - t0,
            }
    finally:
        if tracer is not None:
            tracer.uninstall()
        install_context(None)
    if tracer is not None:
        # Telemetry rides home in the verdict on both the success and
        # the handled-failure path — a failing case's spans are exactly
        # the ones worth seeing in the merged trace.
        verdict["trace"] = tracer.freeze().to_dict()
        verdict["metrics"] = get_metrics().as_dict()
    return verdict


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv:
        from repro.obs.log import get_logger

        get_logger("repro.bench.worker").error(
            "usage", expected="python -m repro.bench.worker (payload lines on stdin)"
        )
        return 2
    frames = os.fdopen(os.dup(1), "w", encoding="utf-8")
    sys.stdout.flush()
    os.dup2(2, 1)
    from repro.bench.executor import BundleCache

    bundles = BundleCache()
    for line in sys.stdin.buffer:
        verdict = run_payload(json.loads(line), bundles)
        frames.write(json.dumps(verdict) + "\n")
        frames.flush()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
