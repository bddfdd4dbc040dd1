"""The operations HTTP plane: REST queries, health probes, ``/metrics``.

A second, read-mostly front door next to the NDJSON TCP socket.  The TCP
protocol stays the ingest fast path; this plane is for everything an
*operator* or a stock observability stack speaks natively:

- ``GET /healthz`` -- liveness.  Answers 200 as long as the HTTP plane
  itself is serving, even while recovery replay is still running.
- ``GET /readyz`` -- readiness.  200 only when the attached service
  passes every check in :meth:`HeavyHittersService.readiness` (started,
  not closed, WAL writable); 503 with the failing
  checks otherwise, and 503 ``recovering`` before a service is attached
  at all.  The distinction is what lets an orchestrator keep the process
  alive through a long WAL replay without routing traffic to it.
- ``GET /metrics`` -- the service's :class:`MetricsRegistry` in
  Prometheus text exposition format.
- ``/v1/...`` REST endpoints translating to the same
  ``service.handle(request) -> response`` dict core the TCP protocol
  uses, so both planes answer byte-identical payloads and structured
  tokens (tuples, bytes) round-trip through the wire-v2 tagged key
  encoding (``?tagged=1`` on query endpoints, ``"encoding": "tagged"``
  in POST bodies).

Routes::

    GET  /                                 live dashboard (static HTML)
    GET  /healthz
    GET  /readyz
    GET  /metrics
    GET  /v1/stats
    GET  /v1/snapshot                      latest snapshot metadata
    GET  /v1/top-k?k=10
    GET  /v1/point?item=KEY[&tagged=1]
    GET  /v1/heavy-hitters?phi=0.01
    GET  /v1/window/top-k?k=10[&window=W]
    GET  /v1/window/point?item=KEY[&tagged=1][&window=W]
    GET  /v1/window/heavy-hitters?phi=0.01[&window=W]
    GET  /v1/traces[?limit=N]              recent sampled traces
    GET  /v1/audit                         run an accuracy audit now
    POST /v1/ingest                        body = TCP ingest op fields
    POST /v1/snapshot                      body = {"drain": bool}?
    POST /v1/checkpoint
    POST /v1/advance-window                body = {"steps": int}?

Tracing: ``?trace=1`` on any ``/v1`` route (or a sampled W3C
``traceparent`` request header) force-samples the request; the response
then carries the per-stage breakdown in its JSON body plus
``Server-Timing`` and ``traceparent`` response headers.  Every error
payload includes a ``trace_id`` — the id to grep server logs and
``/v1/traces`` by — and unexpected handler failures return structured
JSON 500s rather than a printed traceback with no response.

Everything is stdlib (:mod:`http.server`): no new runtime dependency.
The server is a ``ThreadingHTTPServer``, so scrapes and queries proceed
concurrently with TCP ingest; there is deliberately *no* shutdown route
-- process control stays on the TCP plane and the CLI.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from collections.abc import Callable
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.service.dashboard import DASHBOARD_HTML
from repro.service.logging import get_logger
from repro.service.metrics import MetricsRegistry
from repro.service.server import (
    PROTOCOL_VERSION,
    HeavyHittersService,
    PromptShutdownMixin,
)
from repro.service.tracing import TraceContext, format_server_timing, parse_traceparent

__all__ = ["OperationsHttpServer", "serve_http", "CONTENT_TYPE_EXPOSITION"]

#: The content type Prometheus expects from a text-format scrape.
CONTENT_TYPE_EXPOSITION = "text/plain; version=0.0.4; charset=utf-8"

_JSON = "application/json; charset=utf-8"
_HTML = "text/html; charset=utf-8"

_LOG = get_logger("http")

#: route pattern -> builder(query, body) -> service.handle() request dict.
#: Patterns (not raw paths) also label ``repro_http_requests_total``, so
#: metric cardinality is bounded by this table, never by request traffic.
_GetBuilder = Callable[[dict[str, str]], dict[str, Any]]
_PostBuilder = Callable[[dict[str, Any]], dict[str, Any]]

_GET_OPS: dict[str, _GetBuilder] = {}
_POST_OPS: dict[str, _PostBuilder] = {}


def _get_op(pattern: str) -> Callable[[_GetBuilder], _GetBuilder]:
    def register(fn: _GetBuilder) -> _GetBuilder:
        _GET_OPS[pattern] = fn
        return fn

    return register


def _post_op(pattern: str) -> Callable[[_PostBuilder], _PostBuilder]:
    def register(fn: _PostBuilder) -> _PostBuilder:
        _POST_OPS[pattern] = fn
        return fn

    return register


def _item_params(query: dict[str, str]) -> dict[str, Any]:
    if "item" not in query:
        raise ValueError("query requires an 'item' parameter")
    request: dict[str, Any] = {"item": query["item"]}
    if query.get("tagged") in ("1", "true", "yes"):
        request["item_encoding"] = "tagged"
    return request


def _window_param(query: dict[str, str]) -> dict[str, Any]:
    return {"window": int(query["window"])} if "window" in query else {}


@_get_op("/v1/stats")
def _route_stats(query: dict[str, str]) -> dict[str, Any]:
    return {"op": "stats"}


#: Sentinel op for GET /v1/snapshot: describe the latest snapshot without
#: minting a new version (the ``snapshot`` op always rebuilds).  Resolved
#: inside the HTTP plane; it never crosses the TCP protocol.
_SNAPSHOT_META = "__snapshot-meta__"


@_get_op("/v1/snapshot")
def _route_snapshot_meta(query: dict[str, str]) -> dict[str, Any]:
    return {"op": _SNAPSHOT_META}


@_get_op("/v1/top-k")
def _route_top_k(query: dict[str, str]) -> dict[str, Any]:
    request: dict[str, Any] = {"op": "query", "type": "top-k"}
    if "k" in query:
        request["k"] = int(query["k"])
    return request


@_get_op("/v1/point")
def _route_point(query: dict[str, str]) -> dict[str, Any]:
    return {"op": "query", "type": "point", **_item_params(query)}


@_get_op("/v1/heavy-hitters")
def _route_heavy_hitters(query: dict[str, str]) -> dict[str, Any]:
    if "phi" not in query:
        raise ValueError("heavy-hitters requires a 'phi' parameter")
    return {"op": "query", "type": "heavy-hitters", "phi": float(query["phi"])}


@_get_op("/v1/window/top-k")
def _route_window_top_k(query: dict[str, str]) -> dict[str, Any]:
    request: dict[str, Any] = {"op": "query", "type": "window-top-k"}
    if "k" in query:
        request["k"] = int(query["k"])
    return {**request, **_window_param(query)}


@_get_op("/v1/window/point")
def _route_window_point(query: dict[str, str]) -> dict[str, Any]:
    return {
        "op": "query",
        "type": "window-point",
        **_item_params(query),
        **_window_param(query),
    }


@_get_op("/v1/window/heavy-hitters")
def _route_window_heavy_hitters(query: dict[str, str]) -> dict[str, Any]:
    if "phi" not in query:
        raise ValueError("heavy-hitters requires a 'phi' parameter")
    return {
        "op": "query",
        "type": "window-heavy-hitters",
        "phi": float(query["phi"]),
        **_window_param(query),
    }


@_get_op("/v1/traces")
def _route_traces(query: dict[str, str]) -> dict[str, Any]:
    request: dict[str, Any] = {"op": "traces"}
    if "limit" in query:
        request["limit"] = int(query["limit"])
    return request


@_get_op("/v1/audit")
def _route_audit(query: dict[str, str]) -> dict[str, Any]:
    return {"op": "audit"}


@_post_op("/v1/ingest")
def _route_ingest(body: dict[str, Any]) -> dict[str, Any]:
    return {"op": "ingest", **body}


@_post_op("/v1/snapshot")
def _route_snapshot(body: dict[str, Any]) -> dict[str, Any]:
    return {"op": "snapshot", "drain": bool(body.get("drain", True))}


@_post_op("/v1/checkpoint")
def _route_checkpoint(body: dict[str, Any]) -> dict[str, Any]:
    return {"op": "checkpoint"}


@_post_op("/v1/advance-window")
def _route_advance_window(body: dict[str, Any]) -> dict[str, Any]:
    request: dict[str, Any] = {"op": "advance-window"}
    if "steps" in body:
        request["steps"] = body["steps"]
    return request


class _OperationsHandler(BaseHTTPRequestHandler):
    # Keep-alive with explicit Content-Length on every response, so a
    # Prometheus scraper or a curl loop reuses one connection.
    protocol_version = "HTTP/1.1"

    server: "OperationsHttpServer"

    # -- plumbing ------------------------------------------------------- #

    def log_message(self, format: str, *args: Any) -> None:
        # Access logs would drown the terminal `repro serve` runs in; the
        # request counter metric carries the same signal, labelled.
        pass

    def _send(
        self,
        code: int,
        payload: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, code: int, payload: dict[str, Any]) -> None:
        # Error payloads always carry a trace_id (the correlation handle
        # for server logs and /v1/traces); traced responses additionally
        # get the breakdown as Server-Timing + traceparent headers.
        headers: dict[str, str] | None = None
        if not payload.get("ok"):
            payload.setdefault("trace_id", self._trace_id())
        breakdown = payload.get("trace")
        if isinstance(breakdown, dict):
            headers = {
                "Server-Timing": format_server_timing(breakdown),
                "traceparent": TraceContext(
                    trace_id=breakdown.get("trace_id", self._trace_id()),
                    span_id=breakdown.get("span_id", "0" * 16),
                ).to_traceparent(),
            }
        self._send(
            code, (json.dumps(payload) + "\n").encode(), _JSON, headers
        )

    def _trace_id(self) -> str:
        """This request's trace id: joined from the caller's traceparent
        header when one parses, freshly minted otherwise."""
        cached = getattr(self, "_trace_ctx", None)
        if cached is None:
            parent = parse_traceparent(self.headers.get("traceparent"))
            cached = parent.trace_id if parent is not None else TraceContext.new().trace_id
            self._trace_ctx = cached
        return cached

    def _trace_request(self, query: dict[str, str]) -> dict[str, Any]:
        """The op request's ``trace`` field, from ``?trace=1`` / headers."""
        field: dict[str, Any] = {}
        traceparent = self.headers.get("traceparent")
        if traceparent:
            field["traceparent"] = traceparent
        if query.get("trace") in ("1", "true", "yes"):
            field["force"] = True
        return field

    def _count(self, pattern: str, code: int) -> None:
        self.server.count_request(pattern, code)

    def _read_body(self) -> dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ValueError("Content-Length header must be an integer") from None
        if length == 0:
            return {}
        body = json.loads(self.rfile.read(length).decode())
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _dispatch_op(self, pattern: str, request: dict[str, Any]) -> None:
        service = self.server.service
        if service is None:
            self._send_json(503, {"ok": False, "error": "service recovering"})
            self._count(pattern, 503)
            return
        if request.get("op") == _SNAPSHOT_META:
            # Read-only: reuse the latest snapshot (building the first one
            # if none exists) instead of forcing a rebuild per GET.
            try:
                snapshot = service.snapshots.latest_or_refresh()
                response = {"ok": True, **service._snapshot_payload(snapshot)}
            except (ValueError, RuntimeError, OSError) as error:
                response = {"ok": False, "error": str(error)}
        else:
            response = service.handle(request)
        code = 200 if response.get("ok") else 400
        self._send_json(code, response)
        self._count(pattern, code)

    def _guarded(self, pattern_hint: str, handler: Callable[[], None]) -> None:
        """Run one request handler; any unexpected failure becomes a
        structured JSON 500 (with trace_id) instead of http.server's
        printed traceback and silent connection drop."""
        self._trace_ctx = None  # keep-alive reuses this handler instance
        try:
            handler()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to answer
        # repro-lint: boundary HTTP dispatch; logged, 500 JSON, counted in http_requests_total
        except Exception as error:  # noqa: BLE001 - the HTTP boundary
            trace_id = self._trace_id()
            _LOG.error(
                "unhandled error serving request",
                extra={
                    "path": self.path,
                    "trace_id": trace_id,
                    "error": repr(error),
                },
                exc_info=True,
            )
            with contextlib.suppress(OSError):  # response channel already broken
                self._send_json(
                    500,
                    {
                        "ok": False,
                        "error": f"internal error: {error}",
                        "trace_id": trace_id,
                    },
                )
            self._count(pattern_hint, 500)

    # -- GET ------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._guarded("GET", self._handle_get)

    def _handle_get(self) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        if path == "/":
            self._send(200, DASHBOARD_HTML.encode(), _HTML)
            self._count("/", 200)
            return
        if path == "/healthz":
            self._send_json(
                200, {"ok": True, "status": "alive", "protocol": PROTOCOL_VERSION}
            )
            self._count("/healthz", 200)
            return
        if path == "/readyz":
            self._do_readyz()
            return
        if path == "/metrics":
            self._do_metrics()
            return
        builder = _GET_OPS.get(path)
        if builder is None:
            self._send_json(404, {"ok": False, "error": f"no route {path!r}"})
            self._count("unknown", 404)
            return
        query = {
            name: values[-1]
            for name, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        try:
            request = builder(query)
        except (ValueError, KeyError) as error:
            self._send_json(400, {"ok": False, "error": str(error)})
            self._count(path, 400)
            return
        trace_field = self._trace_request(query)
        if trace_field:
            request.setdefault("trace", trace_field)
        self._dispatch_op(path, request)

    def _do_readyz(self) -> None:
        service = self.server.service
        if service is None:
            self._send_json(
                503,
                {"ok": False, "ready": False, "checks": {"recovering": False}},
            )
            self._count("/readyz", 503)
            return
        checks = service.readiness()
        ready = all(checks.values())
        self._send_json(
            200 if ready else 503, {"ok": ready, "ready": ready, "checks": checks}
        )
        self._count("/readyz", 200 if ready else 503)

    def _do_metrics(self) -> None:
        registry = self.server.registry
        if registry is None:
            self._send_json(
                503, {"ok": False, "error": "metrics unavailable (recovering "
                                             "or started with metrics=False)"}
            )
            self._count("/metrics", 503)
            return
        payload = registry.render().encode()
        self._send(200, payload, CONTENT_TYPE_EXPOSITION)
        self._count("/metrics", 200)

    # -- POST ----------------------------------------------------------- #

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._guarded("POST", self._handle_post)

    def _handle_post(self) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        builder = _POST_OPS.get(path)
        if builder is None:
            self._send_json(404, {"ok": False, "error": f"no route {path!r}"})
            self._count("unknown", 404)
            return
        try:
            request = builder(self._read_body())
        except (ValueError, KeyError) as error:
            self._send_json(400, {"ok": False, "error": f"bad request body: {error}"})
            self._count(path, 400)
            return
        query = {
            name: values[-1]
            for name, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        trace_field = self._trace_request(query)
        if trace_field:
            # A trace carried in the body wins over query/header hints.
            request.setdefault("trace", trace_field)
        self._dispatch_op(path, request)


class OperationsHttpServer(PromptShutdownMixin, ThreadingHTTPServer):
    """The HTTP plane, attachable to a service before or after recovery.

    ``service`` may be ``None`` at construction: the plane then answers
    liveness (200) but not readiness (503 ``recovering``) or queries,
    which is exactly the surface an orchestrator should see while
    ``resume_service`` is still replaying the WAL.  Call :meth:`attach`
    when the service exists.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: HeavyHittersService | None = None,
    ) -> None:
        self.service = service
        self._thread: threading.Thread | None = None
        super().__init__((host, port), _OperationsHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def registry(self) -> MetricsRegistry | None:
        service = self.service
        return None if service is None else service.metrics

    def attach(self, service: HeavyHittersService) -> None:
        """Bind a (possibly crash-recovered) service to this plane."""
        self.service = service

    # -- request metric ------------------------------------------------- #

    def count_request(self, pattern: str, code: int) -> None:
        """Count one served request, labelled by route pattern and status."""
        registry = self.registry
        if registry is None:
            return
        # The registry getter is idempotent, so every handler thread
        # shares one family no matter who asks first.
        registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route pattern and status code.",
            labelnames=("path", "code"),
        ).labels(path=pattern, code=str(code)).inc()

    # -- lifecycle ------------------------------------------------------ #

    def start(self) -> OperationsHttpServer:
        """Serve on a daemon thread (the TCP plane owns the main thread)."""
        if self._thread is not None:
            raise RuntimeError("HTTP server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None


def serve_http(
    host: str = "127.0.0.1",
    port: int = 0,
    service: HeavyHittersService | None = None,
) -> OperationsHttpServer:
    """Bind and start the HTTP plane on a daemon thread.

    ``port=0`` binds an ephemeral port (``server.port`` reveals it).
    Returns the running server; call ``close()`` to stop it.
    """
    return OperationsHttpServer(host, port, service).start()
