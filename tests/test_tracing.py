"""Tests for end-to-end request tracing and structured logging.

Covers the tentpole surface of ISSUE 7:

- W3C ``traceparent`` round-trip and tolerant parsing (malformed headers
  never fail a request, they just fail to join the caller's trace);
- sampling semantics: forced always, ambient probabilistically, ring
  bounded, responses byte-identical for unsampled requests;
- the acceptance criterion: a traced ingest's inline breakdown covers
  decode -> admission -> wal_append -> shard_apply;
- trace propagation over both planes (NDJSON TCP and HTTP, including
  the ``Server-Timing`` response header);
- structured JSON / text log formatting with trace-id correlation.
"""

import io
import json
import logging as stdlib_logging

import pytest

from repro.service import ServiceConfig, serve, serve_http
from repro.service.client import HttpServiceClient, ServiceClient
from repro.service.logging import (
    JsonFormatter,
    TextFormatter,
    configure_logging,
    get_logger,
)
from repro.service.server import HeavyHittersService
from repro.service.tracing import (
    Trace,
    TraceContext,
    Tracer,
    format_server_timing,
    parse_traceparent,
)


class TestTraceContext:
    def test_round_trip(self):
        context = TraceContext.new()
        parsed = parse_traceparent(context.to_traceparent())
        assert parsed == context

    def test_ids_are_well_formed(self):
        context = TraceContext.new()
        assert len(context.trace_id) == 32
        assert len(context.span_id) == 16
        int(context.trace_id, 16)
        int(context.span_id, 16)

    def test_unsampled_flag(self):
        context = TraceContext.new(sampled=False)
        assert context.to_traceparent().endswith("-00")
        assert parse_traceparent(context.to_traceparent()).sampled is False

    @pytest.mark.parametrize(
        "header",
        [
            None,
            42,
            "",
            "garbage",
            "00-abc-def-01",  # wrong lengths
            "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # reserved version
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
            "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # not hex
            "00-" + "A" * 32 + "-" + "b" * 16 + "-01",  # uppercase forbidden
        ],
    )
    def test_malformed_headers_return_none(self, header):
        assert parse_traceparent(header) is None

    def test_future_version_with_extra_fields_parses(self):
        # Per spec, versions other than ff parse as 00 + ignorable extras.
        header = "cc-" + "a" * 32 + "-" + "b" * 16 + "-01-whatever-else"
        parsed = parse_traceparent(header)
        assert parsed is not None and parsed.trace_id == "a" * 32


class TestTrace:
    def test_breakdown_shape(self):
        trace = Trace(op="ingest", context=TraceContext.new(), forced=True)
        trace.add_span("decode", 0.001, tokens=4)
        trace.add_span("wal_append", 0.0005)
        trace.finish(0.002)
        breakdown = trace.breakdown()
        assert breakdown["op"] == "ingest"
        assert [span["name"] for span in breakdown["spans"]] == [
            "decode",
            "wal_append",
        ]
        assert breakdown["spans"][0]["ms"] == 1.0
        assert breakdown["spans"][0]["tokens"] == 4
        assert breakdown["total_ms"] == 2.0

    def test_as_dict_records_error_and_annotations(self):
        trace = Trace(op="query", context=TraceContext.new())
        trace.error = "boom"
        trace.annotate(shards=2)
        record = trace.as_dict()
        assert record["error"] == "boom"
        assert record["annotations"] == {"shards": 2}
        assert record["finished"] is False


class TestTracer:
    def test_force_always_samples_even_at_rate_zero(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.begin("ingest", {"force": True}) is not None
        assert tracer.begin("ingest", True) is not None
        assert tracer.begin("ingest", None) is None
        assert tracer.forced_total == 2

    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        assert all(tracer.begin("q") is not None for _ in range(20))
        assert tracer.started_total == 20

    def test_sampled_parent_forces_and_joins_trace(self):
        tracer = Tracer(sample_rate=0.0)
        parent = TraceContext.new()
        trace = tracer.begin("ingest", {"traceparent": parent.to_traceparent()})
        assert trace is not None
        assert trace.trace_id == parent.trace_id
        assert trace.parent_span_id == parent.span_id
        assert trace.span_id != parent.span_id  # the server's own span

    def test_unsampled_parent_does_not_force(self):
        tracer = Tracer(sample_rate=0.0)
        parent = TraceContext.new(sampled=False)
        assert tracer.begin("ingest", {"traceparent": parent.to_traceparent()}) is None

    def test_ring_is_bounded_most_recent_first(self):
        tracer = Tracer(sample_rate=1.0, ring_size=3)
        for index in range(5):
            trace = tracer.begin(f"op-{index}")
            trace.finish(0.0)
        records = tracer.snapshot()
        assert [record["op"] for record in records] == ["op-4", "op-3", "op-2"]
        assert tracer.snapshot(limit=1)[0]["op"] == "op-4"
        assert len(tracer) == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(ring_size=0)


class TestServerTimingHeader:
    def test_format(self):
        trace = Trace(op="ingest", context=TraceContext.new())
        trace.add_span("decode", 0.001)
        trace.add_span("wal_append", 0.0002)
        trace.finish(0.0015)
        header = format_server_timing(trace.breakdown())
        assert header == "decode;dur=1.0, wal_append;dur=0.2, total;dur=1.5"


@pytest.fixture
def wal_service(tmp_path):
    """A started service with WAL on, tracing on, ambient sampling off."""
    config = ServiceConfig(
        num_counters=64,
        num_shards=2,
        wal_dir=str(tmp_path / "wal"),
        trace_sample_rate=0.0,
    )
    service = HeavyHittersService(config).start()
    try:
        yield service
    finally:
        service.close()


class TestTracedPipeline:
    def test_forced_ingest_breakdown_covers_the_pipeline(self, wal_service):
        """The acceptance criterion: decode -> admission -> wal_append ->
        shard_apply, all present in one forced ingest's inline breakdown."""
        response = wal_service.handle(
            {"op": "ingest", "items": ["a", "b", "a"], "trace": {"force": True}}
        )
        assert response["ok"]
        names = [span["name"] for span in response["trace"]["spans"]]
        for stage in ("decode", "admission", "wal_append", "shard_enqueue"):
            assert stage in names, names
        # Forced traces flush the shard queues, so the async apply spans
        # are inline too -- one per shard that received tokens.
        assert "shard_apply" in names
        assert all(span["ms"] >= 0.0 for span in response["trace"]["spans"])
        assert response["trace"]["total_ms"] >= 0.0

    def test_wal_fsync_span_present_under_fsync_always(self, tmp_path):
        config = ServiceConfig(
            num_counters=64,
            num_shards=1,
            wal_dir=str(tmp_path / "wal"),
            fsync="always",
            trace_sample_rate=0.0,
        )
        service = HeavyHittersService(config).start()
        try:
            response = service.handle(
                {"op": "ingest", "items": ["x"], "trace": {"force": True}}
            )
            names = [span["name"] for span in response["trace"]["spans"]]
            assert "wal_fsync" in names
        finally:
            service.close()

    def test_unsampled_responses_carry_no_trace_block(self, wal_service):
        response = wal_service.handle({"op": "ingest", "items": ["a"]})
        assert response["ok"] and "trace" not in response

    def test_ambient_samples_land_in_ring_not_response(self, tmp_path):
        config = ServiceConfig(
            num_counters=64, num_shards=1, trace_sample_rate=1.0
        )
        service = HeavyHittersService(config).start()
        try:
            response = service.handle({"op": "ingest", "items": ["a"]})
            assert response["ok"] and "trace" not in response
            traces = service.handle({"op": "traces"})["traces"]
            ingest_records = [t for t in traces if t["op"] == "ingest"]
            assert ingest_records and ingest_records[0]["forced"] is False
        finally:
            service.close()

    def test_forced_query_records_query_execute(self, wal_service):
        wal_service.handle({"op": "ingest", "items": ["a", "a", "b"]})
        response = wal_service.handle(
            {"op": "query", "type": "top-k", "k": 2, "trace": {"force": True}}
        )
        names = [span["name"] for span in response["trace"]["spans"]]
        assert "query_execute" in names

    def test_weighted_ingest_forwards_trace_to_shard_apply(self, encode):
        """Regression: weighted shard ingest used to drop its trace on the
        floor (it could not even accept one), so forced traces on weighted
        ingest silently lost their shard_apply spans."""
        from repro.service.sharding import ShardedSummarizer
        from repro.streams.exact import ExactCounter

        trace = Trace(op="ingest", context=TraceContext.new(), forced=True)
        with ShardedSummarizer(ExactCounter, num_shards=2) as sharded:
            sharded.ingest(encode(["a", "b"], [2.0, 3.0]), trace=trace)
            sharded.flush()
        spans = trace.as_dict()["spans"]
        apply_spans = [span for span in spans if span["name"] == "shard_apply"]
        assert apply_spans, spans
        assert sum(span["tokens"] for span in apply_spans) == 2

    def test_weighted_service_ingest_breakdown_has_shard_apply(self, wal_service):
        """The service-level view of the same regression: a forced trace
        on a weighted ingest request records its shard_apply spans."""
        response = wal_service.handle(
            {
                "op": "ingest",
                "items": ["a", "b", "a"],
                "weights": [2.0, 3.0, 1.0],
                "trace": {"force": True},
            }
        )
        assert response["ok"]
        names = [span["name"] for span in response["trace"]["spans"]]
        assert "shard_apply" in names, names

    def test_traces_op_reports_ring(self, wal_service):
        wal_service.handle(
            {"op": "ingest", "items": ["a"], "trace": {"force": True}}
        )
        response = wal_service.handle({"op": "traces", "limit": 5})
        assert response["ok"]
        assert response["sample_rate"] == 0.0
        assert any(record["op"] == "ingest" for record in response["traces"])

    def test_traces_op_errors_when_tracing_disabled(self):
        service = HeavyHittersService(
            ServiceConfig(num_counters=64, num_shards=1, tracing=False)
        ).start()
        try:
            response = service.handle({"op": "traces"})
            assert not response["ok"] and "tracing" in response["error"]
            # And requests asking for a trace still succeed, untraced.
            ingest = service.handle(
                {"op": "ingest", "items": ["a"], "trace": {"force": True}}
            )
            assert ingest["ok"] and "trace" not in ingest
        finally:
            service.close()

    def test_ping_advertises_capabilities(self, wal_service):
        response = wal_service.handle({"op": "ping"})
        assert response["tracing"] is True and response["audit"] is True


class TestClientPropagation:
    def test_tcp_client_trace_round_trip(self, tmp_path):
        import threading

        config = ServiceConfig(
            num_counters=64, num_shards=2, trace_sample_rate=0.0
        )
        server = serve(config, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(port=server.server_address[1])
            assert client.ingest(["a", "b", "a"], trace=True) == 3
            breakdown = client.last_trace
            assert breakdown is not None
            names = [span["name"] for span in breakdown["spans"]]
            assert "decode" in names and "shard_apply" in names
            # Untraced calls reset the handle.
            client.ingest(["c"])
            assert client.last_trace is None
            client.call({"op": "snapshot", "drain": True})
            top = client.top_k(2, trace=True)
            assert dict(top)["a"] == 2.0
            assert client.last_trace is not None
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(timeout=5)

    def test_http_client_trace_and_server_timing_header(self):
        config = ServiceConfig(
            num_counters=64, num_shards=2, trace_sample_rate=0.0
        )
        service = HeavyHittersService(config).start()
        http = serve_http(port=0, service=service)
        try:
            client = HttpServiceClient(port=http.port)
            client.ingest(["a", "a", "b"], trace=True)
            assert client.last_trace is not None
            client.snapshot()
            import urllib.request

            with urllib.request.urlopen(
                f"http://127.0.0.1:{http.port}/v1/top-k?k=2&trace=1"
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
                timing = response.headers.get("Server-Timing")
                traceparent = response.headers.get("traceparent")
            assert "trace" in payload
            assert timing is not None and "query_execute;dur=" in timing
            assert parse_traceparent(traceparent) is not None
            assert (
                parse_traceparent(traceparent).trace_id
                == payload["trace"]["trace_id"]
            )
        finally:
            http.close()
            service.close()

    def test_http_joins_upstream_traceparent(self):
        service = HeavyHittersService(
            ServiceConfig(num_counters=64, num_shards=1, trace_sample_rate=0.0)
        ).start()
        http = serve_http(port=0, service=service)
        try:
            import urllib.request

            upstream = TraceContext.new()
            request = urllib.request.Request(
                f"http://127.0.0.1:{http.port}/v1/stats",
                headers={"traceparent": upstream.to_traceparent()},
            )
            with urllib.request.urlopen(request) as response:
                payload = json.loads(response.read().decode("utf-8"))
            # A sampled upstream header force-samples, joining its trace.
            assert payload["trace"]["trace_id"] == upstream.trace_id
        finally:
            http.close()
            service.close()


class TestStructuredLogging:
    def _record(self, **extra):
        logger = stdlib_logging.getLogger("repro.test")
        record = logger.makeRecord(
            "repro.test", stdlib_logging.WARNING, __file__, 1,
            "slow request", (), None, extra=extra,
        )
        return record

    def test_json_formatter_emits_extras(self):
        line = JsonFormatter().format(self._record(trace_id="abc", seconds=1.5))
        payload = json.loads(line)
        assert payload["message"] == "slow request"
        assert payload["level"] == "warning"
        assert payload["trace_id"] == "abc"
        assert payload["seconds"] == 1.5
        assert "ts" in payload

    def test_text_formatter_emits_extras(self):
        line = TextFormatter().format(self._record(trace_id="abc"))
        assert "slow request" in line and "trace_id=abc" in line

    def test_configure_logging_idempotent_and_validating(self):
        stream = io.StringIO()
        configure_logging(log_format="json", level="debug", stream=stream)
        configure_logging(log_format="json", level="debug", stream=stream)
        root = stdlib_logging.getLogger("repro")
        assert len(root.handlers) == 1  # reconfigured, not stacked
        get_logger("unit").info("hello", extra={"trace_id": "t1"})
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert len(lines) == 1
        assert json.loads(lines[0])["trace_id"] == "t1"
        with pytest.raises(ValueError):
            configure_logging(log_format="xml")
        with pytest.raises(ValueError):
            configure_logging(level="loud")

    def test_slow_request_logged_with_trace_id(self, monkeypatch):
        stream = io.StringIO()
        configure_logging(log_format="json", level="info", stream=stream)
        service = HeavyHittersService(
            ServiceConfig(
                num_counters=64,
                num_shards=1,
                trace_sample_rate=0.0,
                slow_request_seconds=1e-9,  # everything is "slow"
            )
        ).start()
        try:
            service.handle(
                {"op": "ingest", "items": ["a"], "trace": {"force": True}}
            )
        finally:
            service.close()
        slow_lines = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if "slow request" in line
        ]
        assert slow_lines, stream.getvalue()
        assert slow_lines[0]["op"] == "ingest"
        assert len(slow_lines[0]["trace_id"]) == 32
