"""Client for the heavy-hitters service's TCP wire protocol.

A thin wrapper used by ``repro query``, the end-to-end tests and the
throughput benchmark: one TCP connection, one JSON object per line each
way -- and, against a protocol-4 server, binary length-prefixed ingest
frames interleaved with those lines (see :mod:`repro.service.wire`).
Responses with ``"ok": false`` raise :class:`ServiceError` so callers
never have to inspect error payloads.

Binary ingest (protocol v4): the client interns each chunk through its
own :class:`~repro.engine.codec.TokenCodec` and ships the WAL's exact
CRC-framed record -- a packed binary chunk, see
:func:`repro.serialization.dump_chunk_bytes` -- inside one socket frame,
so the server appends the received buffer verbatim: no JSON on either
side.  The ``binary`` constructor knob picks the mode: ``"auto"``
(default) negotiates via ping and silently downgrades to NDJSON against
servers older than protocol 4 (a protocol-3 server would read the packed
record as JSON), ``"always"`` raises :class:`ServiceError` when the
server cannot take packed frames, ``"never"`` sticks to NDJSON.
Force-traced ingests always ride NDJSON (frames carry no trace field).

Structured tokens (protocol v2): tuples, bytes, bools, None and
non-finite floats are carried as the type-tagged key strings of
:func:`repro.serialization.encode_item_key`.  The client tags
transparently -- ``client.ingest([("10.0.0.1", 443)])`` just works -- and
refuses to send tagged payloads to a protocol-1 server (which would store
the key strings verbatim); plain string/number traffic stays on the
version-1 raw encoding, so old servers keep working for it.  Tokens the
wire format cannot carry at all (lists, dicts, arbitrary objects, NaN)
are rejected client-side, synchronously, before anything hits the socket.

Transports: the same operation API is served by two planes.
:meth:`ServiceClient.from_url` picks the transport from the URL scheme --
``tcp://host:port`` (or a bare ``host:port``) opens the NDJSON socket,
``http://host:port`` returns an :class:`HttpServiceClient` speaking the
operations HTTP plane of :mod:`repro.service.http`.  Every query and
ingest method behaves identically on both; only ``shutdown`` is
TCP-only (the HTTP plane deliberately has no process-control route).
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.parse
import urllib.request
from collections.abc import Sequence
from typing import Any

from repro import serialization
from repro.algorithms.base import Item
from repro.engine.codec import (
    EncodedChunk,
    TokenAdmissionError,
    TokenCodec,
    validate_tokens,
)
from repro.service.tracing import TraceContext
from repro.service.wal import encode_chunk_record
from repro.service.wire import (
    BINARY_MIN_PROTOCOL,
    SOCKET_FRAME_INGEST,
    SOCKET_FRAME_RESPONSE,
    FrameError,
    encode_socket_frame,
    read_socket_frame,
)

#: Modes of the ``binary`` constructor knob.
BINARY_MODES = ("auto", "always", "never")

#: Rotation bound on the client-side ingest codec, mirroring the server's
#: default ``max_vocabulary``: a long-lived client over an unbounded key
#: space must not grow its interning state without limit.
_CLIENT_MAX_VOCABULARY = 1 << 20


def _force_trace_field() -> dict[str, Any]:
    """The request's ``trace`` field for a client-initiated forced trace.

    A fresh client-side context rides along as a W3C ``traceparent`` so
    the server's span joins the caller's trace id (the id printed by the
    client and the id in the server's ring/logs agree).
    """
    return {"force": True, "traceparent": TraceContext.new().to_traceparent()}


def _needs_tagging(item: Item) -> bool:
    """True when raw JSON would change (or reject) the token's type.

    The exact complement of :func:`repro.serialization.json_lossless`,
    which is also what the server tags its responses by -- one shared
    predicate, so the two sides cannot drift apart.
    """
    return not serialization.json_lossless(item)


def _encode_tagged_items(items: Sequence[Item]) -> list[str]:
    """Encode one ingest chunk as tagged keys, once per distinct token.

    Skewed streams repeat a small set of tokens, so the per-chunk memo cuts
    the recursive encode/validate cost to once per distinct item -- the
    client-side mirror of the server's decode memo.  ``==``-equal tokens of
    different types (``True``/``1``) collapse onto the first-seen encoding,
    exactly as every dict-based aggregation path in this library already
    collapses them.  Unhashable tokens fall through to ``encode_item_key``,
    which rejects them with the canonical admission error.
    """
    memo: dict[Item, str] = {}
    encoded = []
    for item in items:
        try:
            key = memo.get(item)
        except TypeError:
            key = serialization.encode_item_key(item)  # raises: unhashable
        else:
            if key is None:
                key = serialization.encode_item_key(item)
                memo[item] = key
        encoded.append(key)
    return encoded


def _decode_wire_item(value: Any, tagged: Any) -> Item:
    return serialization.decode_item_key(value) if tagged else value


def _entry_item(entry: dict[str, Any]) -> Item:
    return _decode_wire_item(entry["item"], entry.get("item_tagged"))


class ServiceError(RuntimeError):
    """The service answered a request with ``"ok": false``."""


class ServiceClient:
    """Talk to a running heavy-hitters service.

    Examples
    --------
    ::

        with ServiceClient(port=7071) as client:
            client.ingest(["a", "b", "a"])
            client.snapshot()
            print(client.top_k(2))
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7071,
        timeout: float = 30.0,
        binary: str = "auto",
    ) -> None:
        if binary not in BINARY_MODES:
            raise ValueError(f"binary must be one of {BINARY_MODES}, got {binary!r}")
        self._socket = socket.create_connection((host, port), timeout=timeout)
        # Synchronous request/response: Nagle would hold the tail of each
        # request behind the server's delayed ACK, stalling every
        # round-trip by up to the delayed-ACK timeout.
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._socket.makefile("rb")
        self._protocol: int | None = None
        self._binary = binary
        #: Lazily-built ingest codec for the binary path; rotated once its
        #: vocabulary outgrows the bound (the server re-interns per chunk
        #: vocabulary anyway, so rotation is invisible on the wire).
        self._codec: TokenCodec | None = None
        #: WAL position of the most recent acked ingest (None when the
        #: server runs without a WAL) and whether that ack was durable
        #: (appended under fsync=always).
        self.last_ingest_wal: dict[str, Any] | None = None
        self.last_ingest_durable: bool = False
        #: Per-stage latency breakdown of the most recent response, when
        #: that request was force-traced (``trace=True`` on ingest/point/
        #: top_k); ``None`` otherwise.
        self.last_trace: dict[str, Any] | None = None
        #: Why the connection was closed after a reply it could not parse
        #: (``None`` while it is usable): the stream is out of step then,
        #: so every later request raises :class:`ServiceError` at once.
        self._broken: str | None = None

    @staticmethod
    def from_url(
        url: str, timeout: float = 30.0, binary: str = "auto"
    ) -> ServiceClient:
        """Build a client from a service URL, picking the transport.

        ``http://host:port`` speaks the operations HTTP plane
        (:class:`HttpServiceClient`); ``tcp://host:port`` -- or a bare
        ``host:port`` -- opens the wire-protocol socket.  Any other scheme
        is an error, as is ``binary="always"`` over HTTP (the operations
        plane has no frame transport).
        """
        parsed = urllib.parse.urlsplit(url if "//" in url else "//" + url)
        scheme = parsed.scheme or "tcp"
        if parsed.hostname is None or parsed.port is None:
            raise ValueError(f"service URL needs host and port, got {url!r}")
        if scheme == "http":
            if binary == "always":
                raise ValueError(
                    "binary ingest frames need the TCP transport, not http://"
                )
            return HttpServiceClient(parsed.hostname, parsed.port, timeout=timeout)
        if scheme == "tcp":
            return ServiceClient(
                parsed.hostname, parsed.port, timeout=timeout, binary=binary
            )
        raise ValueError(
            f"unsupported service URL scheme {scheme!r} (use tcp:// or http://)"
        )

    @property
    def protocol(self) -> int | None:
        """The server's negotiated protocol version (``None`` before the
        first :meth:`ping` or protocol-dependent operation)."""
        return self._protocol

    def _require_tagging_support(self) -> None:
        """Fail fast instead of feeding tagged keys to a v1 server.

        A protocol-1 server would ingest the encoded key *strings* as
        literal tokens -- silent corruption.  The protocol version is read
        from one ping and cached for the connection's lifetime.
        """
        if self._protocol is None:
            self._protocol = int(self.call({"op": "ping"}).get("protocol", 1))
        if self._protocol < 2:
            raise ServiceError(
                "server speaks protocol "
                f"{self._protocol}, which cannot carry structured tokens "
                "(tuples, bytes, bools, None, non-finite floats)"
            )

    def _use_binary(self, trace: bool = False) -> bool:
        """Decide the wire encoding for one ingest, negotiating on demand.

        The protocol version comes from one ping, cached for the
        connection's lifetime.  Forced traces ride NDJSON (frames carry no
        trace field); under ``"always"`` a server without frame support is
        a hard :class:`ServiceError` rather than a silent downgrade.
        """
        if self._binary == "never":
            return False
        if self._protocol is None:
            self.ping()
        if self._protocol < BINARY_MIN_PROTOCOL:
            if self._binary == "always":
                raise ServiceError(
                    f"server speaks protocol {self._protocol}, which cannot "
                    "take packed binary ingest frames (need protocol "
                    f"{BINARY_MIN_PROTOCOL}+); retry without --binary"
                )
            return False
        return not trace

    def _ingest_codec(self) -> TokenCodec:
        if self._codec is None or len(self._codec) > _CLIENT_MAX_VOCABULARY:
            self._codec = TokenCodec()
        return self._codec

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def _send(self, data: bytes) -> None:
        if self._broken is not None:
            raise ServiceError(f"connection closed after a protocol error: {self._broken}")
        self._socket.sendall(data)

    def _protocol_error(self, message: str) -> ServiceError:
        """Close the connection, whose reply stream is out of step, and
        return the :class:`ServiceError` to raise."""
        self._broken = message
        self.close()
        return ServiceError(message)

    def _response(self, data: bytes) -> dict[str, Any]:
        """Parse one JSON response object, raising on errors."""
        try:
            response = json.loads(data)
        except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
            raise self._protocol_error(f"malformed JSON reply: {error}") from error
        if not isinstance(response, dict):
            raise self._protocol_error(f"reply is not a JSON object: {data[:80]!r}")
        self.last_trace = response.get("trace")
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown service error"))
        return response

    def call(self, request: dict[str, Any]) -> dict[str, Any]:
        """Send one request object; return the response, raising on errors.

        A reply that is not a JSON object closes the connection: this
        call and every later one raise :class:`ServiceError`.
        """
        self._send((json.dumps(request) + "\n").encode())
        line = self._reader.readline()
        if not line:
            raise ServiceError("connection closed by the service")
        return self._response(line)

    def _read_frame_response(self) -> dict[str, Any]:
        """Read the response to one binary frame, raising on errors.

        Every protocol-4 server answers a frame with a RESPONSE frame.  A
        reply that is not a frame (bad magic, truncated, oversized) or
        whose JSON is malformed closes the connection, as in
        :meth:`call`, and is raised as :class:`ServiceError`.
        """
        try:
            frame_type, payload = read_socket_frame(self._reader)
        except FrameError as error:
            raise self._protocol_error(str(error)) from error
        if frame_type != SOCKET_FRAME_RESPONSE:
            raise ServiceError(f"unexpected response frame type {frame_type}")
        return self._response(payload)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        response = self.call({"op": "ping"})
        self._protocol = int(response.get("protocol", 1))
        return bool(response.get("pong"))

    def ingest(
        self,
        items: Sequence[Item],
        weights: Sequence[float] | None = None,
        trace: bool = False,
    ) -> int:
        """Push one chunk of tokens; returns how many the service accepted.

        Structured tokens switch the whole request to the tagged encoding
        (validated and encoded client-side, so an uncarriable token fails
        here, synchronously, before anything is sent).

        ``trace=True`` force-samples the request: the server records the
        per-stage pipeline spans (decode, admission, WAL append, shard
        apply, ...) and attaches the breakdown to the response, available
        afterwards as :attr:`last_trace`.  A forced trace records every
        stage and grows the response, so reserve it for debugging, not
        steady-state ingest.

        Durability: a WAL-backed server appends the chunk to its log
        *before* acking, so when this call returns under ``fsync=always``
        every pushed token is on disk and survives a crash
        (``last_ingest_wal`` holds the acked log position).  Without a WAL
        -- or under weaker fsync policies -- an ack only means the tokens
        reached the shards.

        Wire encoding: against a protocol-4 server (unless constructed
        with ``binary="never"``) the chunk ships as one binary frame --
        encoded client-side, appended to the server's WAL verbatim.
        Older servers get the NDJSON request unchanged.
        """
        items = list(items)
        if self._binary != "never" and self._protocol is None:
            # Negotiation pings the server, but an uncarriable token must
            # fail locally, with the admission error, before *anything*
            # touches the socket -- so validate ahead of the first ping.
            try:
                validate_tokens(items)
            except TokenAdmissionError as error:
                raise serialization.SerializationError(str(error)) from error
        if self._use_binary(trace):
            return self._ingest_binary(items, weights)
        request: dict[str, Any] = {"op": "ingest", "items": items}
        if any(_needs_tagging(item) for item in items):
            # Encode (and therefore validate) locally *before* the protocol
            # check: an uncarriable token must fail with the admission
            # error, not a misleading "server too old" one, and without
            # touching the socket.
            encoded = _encode_tagged_items(items)
            self._require_tagging_support()
            request["items"] = encoded
            request["encoding"] = "tagged"
        if weights is not None:
            request["weights"] = [float(weight) for weight in weights]
        if trace:
            request["trace"] = _force_trace_field()
        response = self.call(request)
        self.last_ingest_wal = response.get("wal")
        self.last_ingest_durable = bool(response.get("durable", False))
        return int(response["ingested"])

    def _ingest_binary(
        self, items: list[Item], weights: Sequence[float] | None
    ) -> int:
        """Encode one chunk locally and ship it as a binary frame.

        Admission control runs inside ``encode_chunk`` -- an uncarriable
        token fails here, synchronously, before anything hits the socket,
        with the same :class:`~repro.serialization.SerializationError` the
        tagged NDJSON path raises.
        """
        codec = self._ingest_codec()
        try:
            chunk = codec.encode_chunk(items, weights)
        except TokenAdmissionError as error:
            raise serialization.SerializationError(str(error)) from error
        except ValueError as error:
            # Weight validation parity with the NDJSON path, where the
            # *server* rejects bad weights and the client surfaces them as
            # ServiceError: same request, same exception, either wire.
            raise ServiceError(str(error)) from error
        return self.ingest_chunk(chunk)

    def ingest_chunk(self, chunk: EncodedChunk) -> int:
        """Push one pre-encoded columnar chunk.

        The zero-copy producer path: a pipeline that already holds
        :class:`~repro.engine.codec.EncodedChunk` objects (e.g. a
        :class:`~repro.streams.batched.BatchedIngestor` with a codec)
        frames the chunk's wire-v2 bytes once and sends them -- the same
        bytes the server appends to its WAL.  Falls back to the NDJSON
        ``ingest`` op when the connection negotiated no binary support.
        """
        if not self._use_binary():
            weights = (
                None
                if chunk.weights is None
                else [float(weight) for weight in chunk.weights]
            )
            return self.ingest(chunk.items(), weights)
        record = encode_chunk_record(chunk)
        self._send(encode_socket_frame(SOCKET_FRAME_INGEST, record))
        response = self._read_frame_response()
        self.last_ingest_wal = response.get("wal")
        self.last_ingest_durable = bool(response.get("durable", False))
        return int(response["ingested"])

    def update_batch(
        self,
        items: EncodedChunk | Sequence[Item],
        weights: Sequence[float] | None = None,
    ) -> int:
        """Estimator-shaped ingest adapter.

        Makes a client a valid target for
        :meth:`repro.streams.batched.BatchedIngestor.feed` (and any other
        ``update_batch`` driver): the whole stream then flows over this
        one persistent connection, as binary frames when the ingestor
        carries a codec and the server speaks protocol 4.
        """
        if isinstance(items, EncodedChunk):
            return self.ingest_chunk(items)
        return self.ingest(items, weights)

    def snapshot(self, drain: bool = True) -> dict[str, Any]:
        """Force a new snapshot; returns its metadata."""
        return self.call({"op": "snapshot", "drain": drain})

    def checkpoint(self) -> dict[str, Any]:
        """Force a durable WAL checkpoint; returns its metadata.

        Raises :class:`ServiceError` when the server runs without a
        write-ahead log.
        """
        return self.call({"op": "checkpoint"})

    def advance_window(self, steps: int = 1) -> int:
        """Rotate the window ring; returns the new current bucket id."""
        return int(self.call({"op": "advance-window", "steps": steps})["bucket"])

    def stats(self) -> dict[str, Any]:
        return self.call({"op": "stats"})

    def shutdown(self) -> None:
        """Ask the service to stop serving (the call itself still succeeds)."""
        self.call({"op": "shutdown"})

    # -- queries -------------------------------------------------------- #

    def _point_request(self, request: dict[str, Any], item: Item) -> dict[str, Any]:
        """Send a point-style query, tagging and decoding the item as needed."""
        if _needs_tagging(item):
            key = serialization.encode_item_key(item)  # validate before ping
            self._require_tagging_support()
            request["item"] = key
            request["item_encoding"] = "tagged"
        else:
            request["item"] = item
        response = self.call(request)
        if response.get("item_tagged"):
            response["item"] = serialization.decode_item_key(response["item"])
            del response["item_tagged"]
        return response

    def point(self, item: Item, trace: bool = False) -> dict[str, Any]:
        """Point query against the latest snapshot (estimate + guarantee).

        ``trace=True`` force-samples the query; the per-stage breakdown
        lands on :attr:`last_trace`.
        """
        request: dict[str, Any] = {"op": "query", "type": "point"}
        if trace:
            request["trace"] = _force_trace_field()
        return self._point_request(request, item)

    def estimate(self, item: Item) -> float:
        return float(self.point(item)["estimate"])

    def top_k(self, k: int, trace: bool = False) -> list[tuple[Item, float]]:
        request: dict[str, Any] = {"op": "query", "type": "top-k", "k": k}
        if trace:
            request["trace"] = _force_trace_field()
        response = self.call(request)
        return [(_entry_item(entry), entry["estimate"]) for entry in response["top_k"]]

    def traces(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Recent sampled traces from the server's ring buffer."""
        request: dict[str, Any] = {"op": "traces"}
        if limit is not None:
            request["limit"] = int(limit)
        return self.call(request)["traces"]

    def audit(self) -> dict[str, Any]:
        """Run an accuracy audit now; returns the report (see
        :class:`repro.service.audit.AuditReport`)."""
        return self.call({"op": "audit"})

    def heavy_hitters(self, phi: float) -> list[tuple[Item, float]]:
        response = self.call({"op": "query", "type": "heavy-hitters", "phi": phi})
        return [
            (_entry_item(entry), entry["estimate"])
            for entry in response["heavy_hitters"]
        ]

    def window_point(self, item: Item, window: int | None = None) -> dict[str, Any]:
        request: dict[str, Any] = {"op": "query", "type": "window-point"}
        if window is not None:
            request["window"] = window
        return self._point_request(request, item)

    def window_top_k(
        self, k: int, window: int | None = None
    ) -> list[tuple[Item, float]]:
        request: dict[str, Any] = {"op": "query", "type": "window-top-k", "k": k}
        if window is not None:
            request["window"] = window
        response = self.call(request)
        return [(_entry_item(entry), entry["estimate"]) for entry in response["top_k"]]

    def window_heavy_hitters(
        self, phi: float, window: int | None = None
    ) -> list[tuple[Item, float]]:
        request: dict[str, Any] = {
            "op": "query",
            "type": "window-heavy-hitters",
            "phi": phi,
        }
        if window is not None:
            request["window"] = window
        response = self.call(request)
        return [
            (_entry_item(entry), entry["estimate"])
            for entry in response["heavy_hitters"]
        ]


# --------------------------------------------------------------------------- #
# HTTP transport
# --------------------------------------------------------------------------- #

#: query type -> operations-plane route for the GET query endpoints.
_HTTP_QUERY_ROUTES: dict[str, str] = {
    "point": "/v1/point",
    "top-k": "/v1/top-k",
    "heavy-hitters": "/v1/heavy-hitters",
    "window-point": "/v1/window/point",
    "window-top-k": "/v1/window/top-k",
    "window-heavy-hitters": "/v1/window/heavy-hitters",
}


class HttpServiceClient(ServiceClient):
    """The same operation API, spoken to the operations HTTP plane.

    Every :class:`ServiceClient` method works unchanged because they all
    funnel through :meth:`call`, which this class reimplements as a
    translation from protocol op dicts onto the REST routes of
    :mod:`repro.service.http`.  Stateless between calls (plain
    request/response HTTP), so one client may be shared across threads.

    ``shutdown`` raises: the HTTP plane has no process-control route by
    design.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080, timeout: float = 30.0
    ) -> None:
        # Deliberately no super().__init__(): there is no socket to open.
        self._base = f"http://{host}:{port}"
        self._timeout = timeout
        self._protocol: int | None = None
        # The HTTP plane has no frame transport: every ingest stays JSON.
        self._binary = "never"
        self._codec: TokenCodec | None = None
        self.last_ingest_wal: dict[str, Any] | None = None
        self.last_ingest_durable: bool = False
        self.last_trace: dict[str, Any] | None = None

    # -- transport ------------------------------------------------------- #

    def _http(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict[str, Any]:
        data = None if body is None else json.dumps(body).encode()
        request_headers = dict(headers or {})
        if data:
            request_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self._base + path,
            data=data,
            method=method,
            headers=request_headers,
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                payload = json.loads(response.read().decode())
                self.last_trace = payload.get("trace")
        except urllib.error.HTTPError as error:
            # Service-level failures arrive as 4xx/5xx with the same
            # {"ok": false, "error": ...} payload the TCP protocol uses.
            try:
                payload = json.loads(error.read().decode())
            except (ValueError, OSError):
                raise ServiceError(f"HTTP {error.code} from {path}") from error
            raise ServiceError(
                payload.get("error", f"HTTP {error.code} from {path}")
            ) from error
        except urllib.error.URLError as error:
            raise ServiceError(f"cannot reach service at {self._base}: {error.reason}") from error
        if not payload.get("ok"):
            raise ServiceError(payload.get("error", "unknown service error"))
        return payload

    def call(self, request: dict[str, Any]) -> dict[str, Any]:
        """Translate one protocol op dict onto the REST surface."""
        op = request.get("op")
        if op == "ping":
            response = self._http("GET", "/healthz")
            return {**response, "pong": True}
        if op == "stats":
            return self._http("GET", "/v1/stats")
        if op == "snapshot":
            return self._http(
                "POST", "/v1/snapshot", {"drain": bool(request.get("drain", True))}
            )
        if op == "checkpoint":
            return self._http("POST", "/v1/checkpoint")
        if op == "advance-window":
            body = {}
            if "steps" in request:
                body["steps"] = request["steps"]
            return self._http("POST", "/v1/advance-window", body)
        if op == "ingest":
            return self._http(
                "POST",
                "/v1/ingest",
                {key: value for key, value in request.items() if key != "op"},
            )
        if op == "query":
            return self._query(request)
        if op == "traces":
            path = "/v1/traces"
            if "limit" in request:
                path += f"?limit={int(request['limit'])}"
            return self._http("GET", path)
        if op == "audit":
            return self._http("GET", "/v1/audit")
        if op == "shutdown":
            raise ServiceError(
                "shutdown is not available over HTTP; use the TCP plane"
            )
        raise ServiceError(f"op {op!r} has no HTTP route")

    def _query(self, request: dict[str, Any]) -> dict[str, Any]:
        route = _HTTP_QUERY_ROUTES.get(request.get("type", ""))
        if route is None:
            raise ServiceError(f"query type {request.get('type')!r} has no HTTP route")
        params: dict[str, str] = {}
        if "item" in request:
            item = request["item"]
            if request.get("item_encoding") == "tagged":
                params["item"], params["tagged"] = item, "1"
            elif isinstance(item, str):
                # A raw string query parameter stays a string server-side.
                params["item"] = item
            else:
                # Query strings are untyped, so every non-string token --
                # even JSON-lossless ints the TCP protocol sends raw --
                # rides the tagged encoding to keep its type.
                params["item"] = serialization.encode_item_key(item)
                params["tagged"] = "1"
        for key in ("k", "phi", "window"):
            if key in request:
                params[key] = str(request[key])
        headers: dict[str, str] = {}
        trace_field = request.get("trace")
        if trace_field:
            # Force-sample over HTTP: ?trace=1 plus the W3C header so the
            # server joins the client's trace id.
            params["trace"] = "1"
            if isinstance(trace_field, dict) and trace_field.get("traceparent"):
                headers["traceparent"] = str(trace_field["traceparent"])
        query = urllib.parse.urlencode(params)
        return self._http(
            "GET", route + ("?" + query if query else ""), headers=headers
        )

    def close(self) -> None:
        """Nothing to release: each call is one self-contained HTTP request."""

    # -- HTTP-plane extras ----------------------------------------------- #

    def healthz(self) -> dict[str, Any]:
        """The liveness payload (raises only if the plane is unreachable)."""
        return self._http("GET", "/healthz")

    def readyz(self) -> dict[str, Any]:
        """The readiness payload -- returned, not raised, even when 503.

        A not-ready service is an *answer* (``{"ready": false, "checks":
        {...}}``), not a transport failure; only an unreachable plane
        raises.
        """
        request = urllib.request.Request(self._base + "/readyz")
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                return json.loads(response.read().decode())
        except urllib.error.HTTPError as error:
            try:
                return json.loads(error.read().decode())
            except (ValueError, OSError):
                raise ServiceError(f"HTTP {error.code} from /readyz") from error
        except urllib.error.URLError as error:
            raise ServiceError(f"cannot reach service at {self._base}: {error.reason}") from error

    def metrics_text(self) -> str:
        """The raw Prometheus exposition payload of ``GET /metrics``."""
        request = urllib.request.Request(self._base + "/metrics")
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                return response.read().decode()
        except urllib.error.HTTPError as error:
            raise ServiceError(f"HTTP {error.code} from /metrics") from error
        except urllib.error.URLError as error:
            raise ServiceError(f"cannot reach service at {self._base}: {error.reason}") from error
