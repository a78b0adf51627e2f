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

Prepared :class:`~repro.bench.runner.TensorBundle` s stay resident in a
least-recently-used :class:`BundleCache` bounded by
:data:`BUNDLE_CACHE_BYTES`, keyed by everything the preparation depends
on, so the cases of one tensor materialize and prepare it once per
worker.  Kernels only read a bundle, so a reused bundle yields the same
record as a fresh one.

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
from collections import OrderedDict

#: Bytes of prepared tensor arrays one worker keeps resident.
BUNDLE_CACHE_BYTES = 128 << 20


class BundleCache:
    """Prepared tensor bundles, least recently used evicted first.

    The key is every input of the preparation: tensor name, tensor spec,
    base seed, block size and rank.  Sizes are taken at each miss, not
    at insertion, because a bundle grows when a kernel first draws its
    operands or caches index columns and plans on its tensors.  A bundle
    larger than the whole budget is prepared and
    used but not kept.
    """

    def __init__(self, budget_bytes: int = BUNDLE_CACHE_BYTES):
        self.budget_bytes = budget_bytes
        self._bundles: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._bundles)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bundles.values())

    def get(self, case):
        """The case's prepared bundle, from the cache or freshly built."""
        from repro.bench.executor import prepare_bundle

        key = (case.tensor, case.tensor_spec, case.base_seed, case.block_size, case.rank)
        bundle = self._bundles.get(key)
        if bundle is not None:
            self._bundles.move_to_end(key)
            return bundle
        bundle = prepare_bundle(case)
        if bundle.nbytes <= self.budget_bytes:
            total = self.nbytes + bundle.nbytes
            while total > self.budget_bytes:
                _, evicted = self._bundles.popitem(last=False)
                total -= evicted.nbytes
            self._bundles[key] = bundle
        return bundle


def run_payload(payload: dict, bundles: BundleCache) -> dict:
    """Run one case payload to its verdict dict (the worker's core)."""
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
    bundles = BundleCache()
    for line in sys.stdin.buffer:
        verdict = run_payload(json.loads(line), bundles)
        frames.write(json.dumps(verdict) + "\n")
        frames.flush()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
