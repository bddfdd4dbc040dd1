"""Tests for the operations HTTP plane and the HTTP-aware client.

Covers the surface ISSUE 6 demands of the plane:

- endpoint round-trips for every token type the wire format carries
  (str / int / tuple / bytes) through the tagged key encoding;
- ``/metrics`` payloads that parse as exposition format 0.0.4 and whose
  counters *agree with acked ingest totals* (metric accuracy);
- liveness-vs-readiness semantics: alive during recovery replay, ready
  only once the recovered service is attached -- and not-ready again
  after a close (the SIGKILL/recover cycle, run in-process);
- concurrent ingest-while-scraping stress;
- the ``repro query --http`` CLI path and ``ServiceClient.from_url``.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.service import (
    HttpServiceClient,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    serve,
    serve_http,
)
from repro.service.http import CONTENT_TYPE_EXPOSITION, OperationsHttpServer
from repro.service.metrics import parse_exposition
from repro.service.recovery import resume_service
from repro.service.server import HeavyHittersService


@pytest.fixture
def running_service():
    """A started service plus its HTTP plane (no TCP socket needed)."""
    config = ServiceConfig(num_counters=64, num_shards=2, window_buckets=4)
    service = HeavyHittersService(config).start()
    http = serve_http(port=0, service=service)
    try:
        yield service, http
    finally:
        http.close()
        service.close()


@pytest.fixture
def http_client(running_service):
    _, http = running_service
    return HttpServiceClient(port=http.port)


def _get(port: int, path: str):
    """Raw GET returning (status, headers, parsed-or-text body)."""
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
            body = response.read().decode("utf-8")
            return response.status, dict(response.headers), body
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode("utf-8")


class TestProbes:
    def test_healthz_alive(self, running_service):
        _, http = running_service
        status, _, body = _get(http.port, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"] and payload["status"] == "alive"

    def test_readyz_ready_when_started(self, running_service):
        _, http = running_service
        status, _, body = _get(http.port, "/readyz")
        assert status == 200
        checks = json.loads(body)["checks"]
        assert checks == {
            "started": True,
            "not_closed": True,
            "wal_writable": True,
        }

    def test_alive_but_not_ready_before_attach(self):
        # The recovery window: HTTP plane up, no service bound yet.
        http = serve_http(port=0, service=None)
        try:
            assert _get(http.port, "/healthz")[0] == 200
            status, _, body = _get(http.port, "/readyz")
            assert status == 503
            assert json.loads(body)["checks"] == {"recovering": False}
            # Queries answer 503, not 404: the route exists, the service
            # just is not there yet.
            assert _get(http.port, "/v1/stats")[0] == 503
        finally:
            http.close()

    def test_readyz_flips_through_crash_recover_cycle(self, tmp_path):
        """Ingest durably, die without close(), recover, readiness flips."""
        config = ServiceConfig(
            num_counters=64, num_shards=2, wal_dir=str(tmp_path / "wal")
        )
        first = HeavyHittersService(config).start()
        acked = first.handle({"op": "ingest", "items": ["a"] * 5 + ["b"] * 2})
        assert acked["ok"]
        first.wal.sync()
        # SIGKILL equivalent: the shard threads and WAL handle just stop
        # being driven; nothing runs close(), so no checkpoint is written.
        first.sharded.close()

        http = serve_http(port=0, service=None)
        try:
            assert _get(http.port, "/readyz")[0] == 503  # recovering
            recovered, result = resume_service(config)
            assert result is not None and result.tokens_replayed == 7
            recovered.start()
            http.attach(recovered)
            status, _, body = _get(http.port, "/readyz")
            assert status == 200
            assert json.loads(body)["ready"] is True
            # The recovered counts answer queries over the plane.
            client = HttpServiceClient(port=http.port)
            assert client.estimate("a") == 5.0
            recovered.close()
            assert _get(http.port, "/readyz")[0] == 503  # closed => not ready
            assert _get(http.port, "/healthz")[0] == 200  # but still alive
        finally:
            http.close()
            if not recovered._closed:
                recovered.close()


class TestQueryEndpoints:
    def test_round_trip_all_token_types(self, http_client):
        tokens = ["word", 7, ("10.0.0.1", 443, "10.9.9.9", 80, "tcp"), b"\x00blob"]
        assert http_client.ingest(tokens * 3) == 12
        http_client.snapshot()
        for token in tokens:
            assert http_client.estimate(token) == 3.0
        top = dict(http_client.top_k(10))
        for token in tokens:
            assert top[token] == 3.0

    def test_heavy_hitters_endpoint(self, http_client):
        http_client.ingest(["hot"] * 8 + ["cold"])
        http_client.snapshot()
        assert dict(http_client.heavy_hitters(0.5)) == {"hot": 8.0}

    def test_window_endpoints(self, http_client):
        http_client.ingest(["early"] * 3)
        assert http_client.advance_window() == 1
        http_client.ingest(["late"] * 2)
        assert dict(http_client.window_top_k(5, window=1)) == {"late": 2.0}
        full = dict(http_client.window_top_k(5))
        assert full == {"early": 3.0, "late": 2.0}
        assert http_client.window_point("early")["estimate"] == 3.0
        assert dict(http_client.window_heavy_hitters(0.5)) == {"early": 3.0}

    def test_weighted_ingest(self, http_client):
        assert http_client.ingest(["x", "y"], weights=[2.5, 1.5]) == 2
        http_client.snapshot()
        assert http_client.estimate("x") == 2.5

    def test_get_snapshot_is_read_only_metadata(self, running_service, http_client):
        service, http = running_service
        http_client.ingest(["a"])
        status, _, body = _get(http.port, "/v1/snapshot")
        assert status == 200
        first_version = json.loads(body)["version"]
        # A second GET does not mint a new version; POST does.
        assert json.loads(_get(http.port, "/v1/snapshot")[2])["version"] == first_version
        assert http_client.snapshot()["version"] == first_version + 1

    def test_stats_endpoint(self, http_client):
        http_client.ingest(["s"])
        stats = http_client.stats()
        assert stats["num_shards"] == 2
        assert stats["tokens_enqueued"] == 1.0

    def test_unknown_route_404(self, running_service):
        _, http = running_service
        assert _get(http.port, "/v1/nope")[0] == 404

    def test_missing_param_400(self, running_service):
        _, http = running_service
        status, _, body = _get(http.port, "/v1/point")
        assert status == 400
        assert "item" in json.loads(body)["error"]
        assert _get(http.port, "/v1/heavy-hitters")[0] == 400

    def test_service_error_400(self, running_service):
        # checkpoint without a WAL is a service-level error, not a crash.
        _, http = running_service
        request = urllib.request.Request(
            f"http://127.0.0.1:{http.port}/v1/checkpoint", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_bad_json_body_400(self, running_service):
        _, http = running_service
        request = urllib.request.Request(
            f"http://127.0.0.1:{http.port}/v1/ingest",
            data=b"not json",
            method="POST",
            headers={"Content-Length": "8"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestMetricsEndpoint:
    def test_exposition_parses_and_has_content_type(self, running_service, http_client):
        _, http = running_service
        http_client.ingest(["m"] * 4)
        status, headers, body = _get(http.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE_EXPOSITION
        samples = parse_exposition(body)  # every line must be well-formed
        assert samples["repro_ingest_tokens_total"][()] == 4.0
        assert samples["repro_service_ready"][()] == 1.0
        info_labels = dict(next(iter(samples["repro_service_info"])))
        assert info_labels["num_counters"] == "64"

    def test_counters_match_acked_totals(self, http_client):
        """Metric accuracy: scraped totals equal what ingest acked."""
        acked = 0
        for size in (1, 10, 100, 3):
            acked += http_client.ingest([f"tok{i}" for i in range(size)])
        samples = parse_exposition(http_client.metrics_text())
        assert samples["repro_ingest_tokens_total"][()] == float(acked)
        assert samples["repro_ingest_batches_total"][()] == 4.0
        assert samples["repro_ingest_batch_size_count"][()] == 4.0
        assert samples["repro_ingest_batch_size_sum"][()] == float(acked)

    def test_shard_callbacks_present_per_shard(self, http_client):
        http_client.ingest(["s"] * 10)
        http_client.snapshot()  # drains the queues
        samples = parse_exposition(http_client.metrics_text())
        applied = samples["repro_shard_tokens_applied_total"]
        assert set(applied) == {(("shard", "0"),), (("shard", "1"),)}
        assert sum(applied.values()) == 10.0

    def test_admission_rejections_counted(self, running_service, http_client):
        # The client rejects uncarriable tokens before they hit the wire,
        # so exercise the *server-side* admission boundary with a raw POST.
        _, http = running_service
        body = json.dumps({"items": [["lists", "are", "not", "tokens"]]}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{http.port}/v1/ingest",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        samples = parse_exposition(http_client.metrics_text())
        assert samples["repro_admission_rejections_total"][()] == 1.0

    def test_wal_metrics_present_when_wal_on(self, tmp_path):
        config = ServiceConfig(
            num_counters=32, num_shards=2, wal_dir=str(tmp_path / "wal")
        )
        service = HeavyHittersService(config).start()
        http = serve_http(port=0, service=service)
        try:
            client = HttpServiceClient(port=http.port)
            client.ingest(["w"] * 5)
            client.checkpoint()
            samples = parse_exposition(client.metrics_text())
            assert samples["repro_wal_frames_appended_total"][()] >= 1.0
            assert samples["repro_wal_append_seconds_count"][()] >= 1.0
            assert samples["repro_checkpoint_version"][()] == 1.0
            assert samples["repro_checkpoint_seconds_count"][()] == 1.0
        finally:
            http.close()
            service.close()

    def test_http_request_counter_labels_routes_not_paths(self, http_client):
        http_client.estimate("q")  # /v1/point?item=q -- raw path has a query
        http_client.healthz()
        samples = parse_exposition(http_client.metrics_text())
        labels = {dict(key)["path"] for key in samples["repro_http_requests_total"]}
        assert "/v1/point" in labels
        assert "/healthz" in labels
        assert not any("?" in label for label in labels)

    def test_metrics_503_when_disabled(self):
        config = ServiceConfig(num_counters=32, num_shards=1, metrics=False)
        service = HeavyHittersService(config).start()
        http = serve_http(port=0, service=service)
        try:
            assert service.metrics is None
            assert _get(http.port, "/metrics")[0] == 503
            # The data plane still works without instruments.
            client = HttpServiceClient(port=http.port)
            assert client.ingest(["x"]) == 1
        finally:
            http.close()
            service.close()


class TestConcurrentScrapes:
    def test_ingest_while_scraping(self, running_service):
        """Scrapes must parse and counters stay exact under concurrency."""
        service, http = running_service
        per_thread, num_threads = 40, 4
        errors = []

        def ingest_worker():
            try:
                client = HttpServiceClient(port=http.port)
                for index in range(per_thread):
                    assert client.ingest([f"item{index % 7}"] * 3) == 3
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def scrape_worker(stop):
            try:
                client = HttpServiceClient(port=http.port)
                while not stop.is_set():
                    parse_exposition(client.metrics_text())
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        stop = threading.Event()
        scraper = threading.Thread(target=scrape_worker, args=(stop,))
        workers = [threading.Thread(target=ingest_worker) for _ in range(num_threads)]
        scraper.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        scraper.join()
        assert errors == []
        samples = parse_exposition(HttpServiceClient(port=http.port).metrics_text())
        expected = float(per_thread * num_threads * 3)
        assert samples["repro_ingest_tokens_total"][()] == expected


class TestHttpClient:
    def test_from_url_schemes(self, running_service):
        _, http = running_service
        client = ServiceClient.from_url(f"http://127.0.0.1:{http.port}")
        assert isinstance(client, HttpServiceClient)
        assert client.ping()
        with pytest.raises(ValueError, match="scheme"):
            ServiceClient.from_url("ftp://127.0.0.1:1")
        with pytest.raises(ValueError, match="host and port"):
            ServiceClient.from_url("http://127.0.0.1")

    def test_from_url_tcp(self):
        config = ServiceConfig(num_counters=32, num_shards=1)
        server = serve(config, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient.from_url(f"tcp://127.0.0.1:{server.port}") as client:
                assert type(client) is ServiceClient
                assert client.ping()
            with ServiceClient.from_url(f"127.0.0.1:{server.port}") as client:
                assert client.ping()
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()

    def test_shutdown_not_available(self, http_client):
        with pytest.raises(ServiceError, match="TCP"):
            http_client.shutdown()

    def test_unreachable_raises_service_error(self):
        client = HttpServiceClient(port=1, timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.ping()

    def test_tcp_and_http_answers_agree(self):
        """Both planes funnel into one handle(); payloads must match."""
        config = ServiceConfig(num_counters=64, num_shards=2)
        server = serve(config, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        http = serve_http(port=0, service=server.service)
        try:
            tcp = ServiceClient(port=server.port)
            web = HttpServiceClient(port=http.port)
            web.ingest(["a", "a", "b", ("flow", 1)])
            web.snapshot()
            assert tcp.top_k(3) == web.top_k(3)
            assert tcp.estimate(("flow", 1)) == web.estimate(("flow", 1))
            assert tcp.stats()["tokens_enqueued"] == web.stats()["tokens_enqueued"]
            tcp.close()
        finally:
            http.close()
            server.shutdown()
            server.server_close()
            server.service.close()


class TestCliHttp:
    def test_query_http_flag(self, running_service, http_client, capsys):
        http_client.ingest(["cli"] * 2)
        _, http = running_service
        code = cli_main(
            ["query", "ping", "--http", "--port", str(http.port)]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        code = cli_main(
            ["query", "top-k", "--http", "--port", str(http.port), "--k", "1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["top_k"][0]["item"] == "cli"

    def test_serve_http_port_flag(self, tmp_path, capsys):
        """`repro serve --http-port` brings the plane up alongside TCP."""
        import repro.cli as cli

        # Drive _cmd_serve far enough to see both planes bind, then stop:
        # serve_forever is swapped for an immediate return.
        args = cli.build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--http-port",
                "0",
                "--counters",
                "32",
                "--shards",
                "1",
            ]
        )
        from repro.service.server import ServiceServer

        original = ServiceServer.serve_forever
        ServiceServer.serve_forever = lambda self: None
        try:
            assert args.func(args) == 0
        finally:
            ServiceServer.serve_forever = original
        out = capsys.readouterr().out
        assert "operations HTTP plane on" in out
        assert "serving ArraySummary shards" in out


class TestDashboard:
    def test_root_serves_html(self, running_service):
        _, http = running_service
        status, headers, body = _get(http.port, "/")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert "<html" in body and "/v1/traces" in body and "/metrics" in body

    def test_dashboard_up_during_recovery(self):
        # The dashboard is static: it must render even before a service
        # is attached (its JS polls /readyz and shows "recovering").
        http = serve_http(port=0, service=None)
        try:
            status, headers, _ = _get(http.port, "/")
            assert status == 200
            assert headers["Content-Type"].startswith("text/html")
        finally:
            http.close()


class TestStructuredErrors:
    """ISSUE 7 satellite: malformed input anywhere on the HTTP plane must
    produce a structured JSON 400/500 carrying a ``trace_id``, never a
    raw traceback or a silently dropped connection."""

    def _post(self, port, path, data, headers=None):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=data,
            method="POST",
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read().decode())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode())

    @pytest.mark.parametrize(
        "path", ["/v1/ingest", "/v1/snapshot", "/v1/checkpoint", "/v1/advance-window"]
    )
    def test_malformed_json_body_is_structured_400(self, running_service, path):
        _, http = running_service
        status, payload = self._post(http.port, path, b"{not json!")
        assert status == 400
        assert payload["ok"] is False
        assert "error" in payload
        assert len(payload["trace_id"]) == 32

    def test_non_object_json_body_is_structured_400(self, running_service):
        _, http = running_service
        status, payload = self._post(http.port, "/v1/ingest", b'["a", "b"]')
        assert status == 400
        assert "object" in payload["error"]
        assert "trace_id" in payload

    @pytest.mark.parametrize(
        "path",
        [
            "/v1/top-k?k=banana",
            "/v1/top-k?k=-1",
            "/v1/window/top-k?k=-1",
            "/v1/point",  # missing item
            "/v1/heavy-hitters?phi=banana",
            "/v1/heavy-hitters",  # missing phi
            "/v1/window/top-k?k=banana",
            "/v1/window/point?item=a&window=banana",
            "/v1/traces?limit=banana",
        ],
    )
    def test_bad_query_params_are_structured_400(self, running_service, path):
        _, http = running_service
        status, _, body = _get(http.port, path)
        assert status == 400
        payload = json.loads(body)
        assert payload["ok"] is False and "trace_id" in payload

    def test_404_carries_trace_id(self, running_service):
        _, http = running_service
        status, _, body = _get(http.port, "/v1/definitely-not-a-route")
        assert status == 404
        assert "trace_id" in json.loads(body)

    def test_503_recovering_carries_trace_id(self):
        http = serve_http(port=0, service=None)
        try:
            status, _, body = _get(http.port, "/v1/stats")
            assert status == 503
            assert "trace_id" in json.loads(body)
        finally:
            http.close()

    def test_error_joins_upstream_traceparent(self, running_service):
        from repro.service.tracing import TraceContext

        _, http = running_service
        upstream = TraceContext.new()
        request = urllib.request.Request(
            f"http://127.0.0.1:{http.port}/v1/nope",
            headers={"traceparent": upstream.to_traceparent()},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        payload = json.loads(excinfo.value.read().decode())
        assert payload["trace_id"] == upstream.trace_id

    def test_unhandled_exception_is_structured_500(self, running_service):
        service, http = running_service
        original = service.handle
        service.handle = lambda request: (_ for _ in ()).throw(
            RuntimeError("kaboom")
        )
        try:
            status, _, body = _get(http.port, "/v1/stats")
        finally:
            service.handle = original
        assert status == 500
        payload = json.loads(body)
        assert payload["ok"] is False
        assert "kaboom" in payload["error"]
        assert len(payload["trace_id"]) == 32

    def test_garbage_content_length_is_400(self, running_service):
        # Raw socket: urllib would silently rewrite the header.
        import socket

        _, http = running_service
        with socket.create_connection(("127.0.0.1", http.port), timeout=5) as sock:
            sock.sendall(
                b"POST /v1/checkpoint HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: banana\r\n"
                b"Connection: close\r\n\r\n"
            )
            raw = b""
            while chunk := sock.recv(4096):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b" 400 " in head.split(b"\r\n", 1)[0]
        payload = json.loads(body.decode())
        assert "Content-Length" in payload["error"]
        assert "trace_id" in payload
