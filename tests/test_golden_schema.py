"""Golden-schema regression tests for on-disk/wire formats.

External consumers parse run-store journals and exported Chrome traces
from disk, so their schemas are contracts: these tests pin the exact key
sets and round-trip behaviour.  If one fails because you changed a
schema on purpose, bump the relevant version constant and update the
goldens here in the same commit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import RunStore, SweepCase, canonical_tensor_spec
from repro.bench.runstore import STORE_VERSION, StoreError
from repro.metrics.perf import PerfRecord
from repro.obs import Tracer
from repro.obs.export import CHROME_TRACE_VERSION, chrome_trace

# ---------------------------------------------------------------------- #
# Golden key sets
# ---------------------------------------------------------------------- #

PERF_RECORD_KEYS = {
    "tensor",
    "kernel",
    "fmt",
    "platform",
    "flops",
    "seconds",
    "gflops",
    "bound_gflops",
    "efficiency",
    "host_seconds",
    "host_gflops",
    "extra",
}

SWEEP_CASE_KEYS = {
    "tensor",
    "kernel",
    "fmt",
    "platform",
    "tensor_spec",
    "rank",
    "block_size",
    "repeats",
    "warmup",
    "measure_host",
    "backend",
    "base_seed",
    "cache_scale",
}

RECORD_LINE_KEYS = {
    "v",
    "kind",
    "fingerprint",
    "seed",
    "case",
    "attempt",
    "elapsed_s",
    "record",
}

QUARANTINE_LINE_KEYS = {"v", "kind", "fingerprint", "seed", "case", "failures"}

HEADER_LINE_KEYS = {"v", "kind", "fingerprint_schema"}

# Serve-protocol goldens (repro.serve.protocol): scripted clients parse
# these wire lines and scrape these metric names.
SERVE_REQUEST_KEYS = {"v", "id", "op", "params"}
SERVE_REQUEST_OPTIONAL_KEYS = {"trace"}
SERVE_TRACE_KEYS = {"trace_id", "parent_span", "baggage"}
SERVE_RESPONSE_KEYS = {"v", "id", "ok", "kind", "payload"}
SERVE_OPS = {"sweep", "report", "regress", "status", "health"}
SERVE_PARAM_KEYS = {
    "sweep": {"dataset", "tensors", "platforms", "scale", "seed", "rank"},
    "report": {"format"},
    "regress": {
        "baseline", "threshold", "confidence", "resamples", "min_pairs", "seed",
    },
    "status": set(),
    "health": set(),
}
SERVE_HEALTH_RESULT_KEYS = {
    "protocol", "uptime_s", "store", "records", "quarantined", "inflight",
    "queued", "workers", "steals", "requests", "errors", "cache_hits",
    "cache_misses", "cache_hit_rate", "request_seconds",
}
SERVE_HEALTH_LATENCY_KEYS = {"count", "sum", "p50", "p95", "p99"}
SERVE_SWEEP_RESULT_KEYS = {
    "total", "hits", "misses", "coalesced", "executed", "completed",
    "quarantined", "fingerprints", "records",
}
SERVE_STATUS_RESULT_KEYS = {
    "protocol", "store", "fingerprint_schema", "records", "quarantined",
    "inflight", "workers", "isolation", "counters",
}
SERVE_PROGRESS_KEYS = {"total", "hits", "done", "pending"}
SERVE_COUNTER_NAMES = {
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.coalesced",
    "serve.errors",
    "serve.executed",
    "serve.quarantined",
    "serve.requests",
    "serve.steals",
}


def sample_record(**overrides) -> PerfRecord:
    base = dict(
        tensor="vast",
        kernel="mttkrp",
        fmt="coo",
        platform="Bluesky",
        flops=1.5e6,
        seconds=0.0125,
        gflops=0.12,
        bound_gflops=3.4,
        efficiency=0.0352941,
        host_seconds=0.002,
        host_gflops=0.75,
        extra={"mode": 1, "method": "owner"},
    )
    base.update(overrides)
    return PerfRecord(**base)


def sample_case() -> SweepCase:
    return SweepCase(
        tensor="tiny",
        kernel="ts",
        fmt="coo",
        platform="Bluesky",
        tensor_spec=canonical_tensor_spec(
            {"kind": "random", "shape": [20, 15, 6], "nnz": 100, "seed": 3}
        ),
        rank=4,
        block_size=4,
        repeats=1,
        warmup=0,
    )


# ---------------------------------------------------------------------- #
# PerfRecord wire format
# ---------------------------------------------------------------------- #


class TestPerfRecordRoundTrip:
    def test_dict_keys_are_pinned(self):
        assert set(sample_record().to_dict()) == PERF_RECORD_KEYS

    def test_json_round_trip_is_exact(self):
        rec = sample_record()
        back = PerfRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back == rec

    def test_numpy_extras_are_sanitized(self):
        rec = sample_record(
            extra={
                "np_float": np.float64(2.5),
                "np_int": np.int32(7),
                "np_bool": np.bool_(True),
                "nested": {"arr": [np.float32(1.0), 2]},
                "none": None,
            }
        )
        wire = json.loads(json.dumps(rec.to_dict()))
        assert wire["extra"]["np_float"] == 2.5
        assert wire["extra"]["np_int"] == 7
        assert wire["extra"]["np_bool"] is True
        assert wire["extra"]["nested"]["arr"] == [1.0, 2]
        assert wire["extra"]["none"] is None
        back = PerfRecord.from_dict(wire)
        assert back.extra == wire["extra"]

    def test_unknown_field_is_rejected(self):
        wire = sample_record().to_dict()
        wire["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            PerfRecord.from_dict(wire)


# ---------------------------------------------------------------------- #
# Run-store line schema
# ---------------------------------------------------------------------- #


class TestRunStoreLines:
    def test_store_version_is_pinned(self):
        assert STORE_VERSION == 1

    def test_record_line_keys(self, tmp_path):
        store = RunStore(tmp_path / "run.jsonl")
        case = sample_case()
        store.append_record(case, sample_record(), attempt=1, elapsed_s=0.5)
        header, line = (tmp_path / "run.jsonl").read_text().splitlines()
        assert set(json.loads(header)) == HEADER_LINE_KEYS
        payload = json.loads(line)
        assert set(payload) == RECORD_LINE_KEYS
        assert payload["v"] == STORE_VERSION
        assert payload["kind"] == "record"
        assert payload["fingerprint"] == case.fingerprint
        assert payload["seed"] == case.case_seed
        assert set(payload["case"]) == SWEEP_CASE_KEYS
        assert set(payload["record"]) == PERF_RECORD_KEYS
        assert payload["attempt"] == 1
        assert payload["elapsed_s"] == 0.5

    def test_quarantine_line_keys(self, tmp_path):
        store = RunStore(tmp_path / "run.jsonl")
        case = sample_case()
        failures = [{"attempt": 0, "status": "fail_timeout", "error": "t"}]
        store.append_quarantine(case, failures)
        _header, line = (tmp_path / "run.jsonl").read_text().splitlines()
        payload = json.loads(line)
        assert set(payload) == QUARANTINE_LINE_KEYS
        assert payload["kind"] == "quarantine"
        assert payload["failures"] == failures

    def test_record_round_trips_through_store(self, tmp_path):
        store = RunStore(tmp_path / "run.jsonl")
        case = sample_case()
        rec = sample_record()
        store.append_record(case, rec, attempt=0, elapsed_s=0.1)
        state = store.load()
        assert state.perf_records([case.fingerprint]) == [rec]
        stored_case = SweepCase.from_dict(state.records[case.fingerprint]["case"])
        assert stored_case == case
        assert stored_case.fingerprint == case.fingerprint

    def test_version_drift_fails_load(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = RunStore(path)
        store.append_record(sample_case(), sample_record(), attempt=0, elapsed_s=0.1)
        header, line = path.read_text().splitlines()
        payload = json.loads(line)
        payload["v"] = STORE_VERSION + 1
        path.write_text(header + "\n" + json.dumps(payload) + "\n")
        with pytest.raises(StoreError, match="version"):
            store.load()

    def test_fresh_journal_opens_with_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunStore(path).append_record(
            sample_case(), sample_record(), attempt=0, elapsed_s=0.1
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert set(header) == HEADER_LINE_KEYS
        assert header["kind"] == "header"
        assert header["v"] == STORE_VERSION
        from repro.bench import fingerprint_schema_version

        assert header["fingerprint_schema"] == fingerprint_schema_version()

    def test_headerless_legacy_journal_still_loads(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = RunStore(path)
        case = sample_case()
        store.append_record(case, sample_record(), attempt=0, elapsed_s=0.1)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")  # strip the header
        state = store.load()
        assert state.header is None
        assert case.fingerprint in state.records


# ---------------------------------------------------------------------- #
# Chrome trace-event export schema
# ---------------------------------------------------------------------- #


def traced() -> dict:
    tracer = Tracer(meta={"suite": "golden"})
    with tracer:
        with tracer.span("outer", cat="kernel", mode=1):
            tracer.instant("tick", cat="kernel")
    return chrome_trace(tracer.freeze())


class TestChromeTraceSchema:
    def test_top_level_keys(self):
        doc = traced()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["exporter"] == "repro.obs"
        assert doc["otherData"]["version"] == CHROME_TRACE_VERSION == 2
        assert doc["otherData"]["suite"] == "golden"

    def test_event_phases_and_keys(self):
        events = traced()["traceEvents"]
        by_ph = {}
        for e in events:
            by_ph.setdefault(e["ph"], []).append(e)
        assert set(by_ph) == {"M", "X", "i"}

        (span,) = by_ph["X"]
        assert set(span) == {"name", "cat", "ph", "ts", "pid", "tid", "args", "dur"}
        assert span["name"] == "outer"
        assert span["args"]["mode"] == 1

        (instant,) = by_ph["i"]
        assert set(instant) == {"name", "cat", "ph", "ts", "pid", "tid", "args", "s"}
        assert instant["s"] == "t"

        (meta,) = by_ph["M"]
        assert set(meta) == {"name", "ph", "pid", "tid", "args"}
        assert meta["name"] == "thread_name"

    def test_export_is_json_serializable(self):
        doc = traced()
        assert json.loads(json.dumps(doc)) == doc


def merged_inputs() -> tuple:
    from repro.obs import Trace

    parent = Tracer(trace_id="cafe", meta={"process": "daemon"})
    with parent:
        with parent.span("serve.sweep", cat="request", span_id="feed"):
            pass
    child = Tracer(
        trace_id="cafe", meta={"process": "worker", "parent_span": "feed"}
    )
    with child:
        with child.span("run.mttkrp", cat="kernel"):
            pass
    root = parent.freeze()
    # Round-trip the child through the verdict wire format first, as the
    # executor does when folding a worker subprocess's spans back in.
    kid = Trace.from_dict(json.loads(json.dumps(child.freeze().to_dict())))
    return root, kid


def merged() -> dict:
    from repro.obs import merge_traces

    root, kid = merged_inputs()
    return merge_traces(root, children=[kid], trace_id="cafe")


class TestMergedTraceSchema:
    def test_top_level_keys(self):
        doc = merged()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["exporter"] == "repro.obs"
        assert doc["otherData"]["version"] == CHROME_TRACE_VERSION
        assert doc["otherData"]["trace_id"] == "cafe"
        assert doc["otherData"]["processes"] == 2

    def test_processes_and_flow_events(self):
        events = merged()["traceEvents"]
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {0: "daemon", 1: "worker"}
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {0, 1}
        flows = sorted(
            (e for e in events if e.get("cat") == "flow"),
            key=lambda e: e["ph"],
        )
        assert [e["ph"] for e in flows] == ["f", "s"]
        assert all(e["name"] == "spawn" for e in flows)
        assert all(e["id"] == "feed" for e in flows)
        assert flows[1]["pid"] == 0 and flows[0]["pid"] == 1

    def test_merge_is_deterministic(self):
        from repro.obs import merge_traces

        root, kid = merged_inputs()
        once = json.dumps(merge_traces(root, children=[kid], trace_id="cafe"))
        again = json.dumps(merge_traces(root, children=[kid], trace_id="cafe"))
        assert once == again


# ---------------------------------------------------------------------- #
# Roofline attribution block (PerfRecord.extra["roofline"])
# ---------------------------------------------------------------------- #

ROOFLINE_KEYS = {
    "platform",
    "kernel",
    "fmt",
    "oi",
    "ridge_oi",
    "bound_gflops",
    "achieved_gflops",
    "bound_fraction",
    "boundedness",
    "modeled_flops",
    "modeled_bytes",
    "bw_ceiling_gbs",
    "effective_bw_gbs",
    "bw_fraction",
}


class TestRooflineBlockSchema:
    def _block(self):
        from repro.kernels.flops import KernelCost
        from repro.obs import attribute
        from repro.roofline import RooflineModel, get_platform
        from repro.types import Format, Kernel

        model = RooflineModel(get_platform("Bluesky"))
        cost = KernelCost(Kernel.TTV, Format.COO, 1e6, 1e7)
        return attribute(model, cost, seconds=1e-4, host_seconds=1e-3).as_dict()

    def test_block_keys_are_pinned(self):
        assert set(self._block()) == ROOFLINE_KEYS

    def test_block_rides_record_wire_format(self):
        rec = sample_record(extra={"roofline": self._block()})
        back = PerfRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert set(back.extra["roofline"]) == ROOFLINE_KEYS
        assert back.extra["roofline"]["boundedness"] in ("memory", "compute")


# ---------------------------------------------------------------------- #
# Serve wire protocol (repro.serve.protocol)
# ---------------------------------------------------------------------- #


class TestServeProtocolGolden:
    def test_protocol_version_is_pinned(self):
        from repro.serve import protocol

        assert protocol.PROTOCOL_VERSION == 1

    def test_ops_and_key_sets_are_pinned(self):
        from repro.serve import protocol

        assert set(protocol.OPS) == SERVE_OPS
        assert set(protocol.REQUEST_KEYS) == SERVE_REQUEST_KEYS
        assert set(protocol.RESPONSE_KEYS) == SERVE_RESPONSE_KEYS
        for op, keys in SERVE_PARAM_KEYS.items():
            assert set(protocol.PARAM_KEYS[op]) == keys, op
        assert set(protocol.SWEEP_RESULT_KEYS) == SERVE_SWEEP_RESULT_KEYS
        assert set(protocol.STATUS_RESULT_KEYS) == SERVE_STATUS_RESULT_KEYS
        assert set(protocol.PROGRESS_KEYS) == SERVE_PROGRESS_KEYS
        assert set(protocol.REQUEST_OPTIONAL_KEYS) == SERVE_REQUEST_OPTIONAL_KEYS
        assert set(protocol.TRACE_KEYS) == SERVE_TRACE_KEYS
        assert set(protocol.HEALTH_RESULT_KEYS) == SERVE_HEALTH_RESULT_KEYS
        assert set(protocol.HEALTH_LATENCY_KEYS) == SERVE_HEALTH_LATENCY_KEYS

    def test_serve_counter_names_are_pinned(self):
        from repro.serve import protocol

        assert set(protocol.SERVE_COUNTERS) == SERVE_COUNTER_NAMES
        assert set(protocol.SERVE_HISTOGRAMS) == {"serve.request_seconds"}

    def test_request_wire_round_trip(self):
        from repro.serve import protocol

        req = protocol.make_request("sweep", {"tensors": ["s1"]}, id="7")
        assert set(req) == SERVE_REQUEST_KEYS
        back = protocol.validate_request(protocol.decode(protocol.encode(req)))
        assert back == req

    def test_traced_request_wire_round_trip(self):
        from repro.serve import protocol

        trace = {"trace_id": "cafe", "parent_span": "beef", "baggage": {}}
        req = protocol.make_request("sweep", {"tensors": ["s1"]}, trace=trace)
        assert set(req) == SERVE_REQUEST_KEYS | {"trace"}
        assert set(req["trace"]) == SERVE_TRACE_KEYS
        back = protocol.validate_request(protocol.decode(protocol.encode(req)))
        assert back == req
        # An untraced request stays byte-identical to protocol v1 wire.
        assert "trace" not in protocol.make_request("sweep", {})

    def test_malformed_trace_is_rejected(self):
        from repro.serve import protocol

        req = protocol.make_request("status")
        req["trace"] = {"trace_id": ""}
        with pytest.raises(protocol.ProtocolError, match="trace"):
            protocol.validate_request(req)
        req["trace"] = {"trace_id": "cafe", "surprise": 1}
        with pytest.raises(protocol.ProtocolError, match="trace"):
            protocol.validate_request(req)

    def test_response_wire_round_trip(self):
        from repro.serve import protocol

        resp = protocol.make_response("7", "result", {"total": 0})
        assert set(resp) == SERVE_RESPONSE_KEYS
        assert resp["ok"] is True
        err = protocol.make_response("7", "error", {"error": "boom"})
        assert err["ok"] is False
        back = protocol.validate_response(protocol.decode(protocol.encode(resp)))
        assert back == resp

    def test_unknown_op_and_params_are_rejected(self):
        from repro.serve import protocol

        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            protocol.make_request("explode")
        with pytest.raises(protocol.ProtocolError, match="param"):
            protocol.make_request("report", {"tensors": ["s1"]})
        with pytest.raises(protocol.ProtocolError, match="baseline"):
            protocol.make_request("regress", {"threshold": 1.1})

    def test_version_drift_is_rejected(self):
        from repro.serve import protocol

        req = protocol.make_request("status")
        req["v"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.validate_request(req)


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #


class TestPrometheusExportGolden:
    def test_exact_render(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.inc("exec.completed", 3, kernel="mttkrp", fmt="hicoo")
        reg.set_gauge("ws.bytes", 4096.0, pool="main")
        reg.observe("case_s", 0.02, buckets=(0.01, 0.1), kernel="mttkrp")
        assert reg.render_prometheus() == (
            "# TYPE case_s histogram\n"
            'case_s_bucket{kernel="mttkrp",le="0.01"} 0\n'
            'case_s_bucket{kernel="mttkrp",le="0.1"} 1\n'
            'case_s_bucket{kernel="mttkrp",le="+Inf"} 1\n'
            'case_s_sum{kernel="mttkrp"} 0.02\n'
            'case_s_count{kernel="mttkrp"} 1\n'
            "# TYPE case_s_quantile gauge\n"
            'case_s_quantile{kernel="mttkrp",quantile="0.5"} 0.02\n'
            'case_s_quantile{kernel="mttkrp",quantile="0.95"} 0.02\n'
            'case_s_quantile{kernel="mttkrp",quantile="0.99"} 0.02\n'
            "# TYPE exec_completed counter\n"
            'exec_completed{fmt="hicoo",kernel="mttkrp"} 3\n'
            "# TYPE ws_bytes gauge\n"
            'ws_bytes{pool="main"} 4096\n'
        )
