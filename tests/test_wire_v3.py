"""Wire protocol v3: binary length-prefixed ingest frames, end to end.

The contract under test (ISSUE 8):

* the socket framing round-trips and every malformed frame (bad magic,
  truncation, oversize) fails loudly as :class:`FrameError`;
* the frame payload IS a CRC-framed WAL chunk record -- the server
  validates the CRC, appends the received bytes verbatim, and decodes
  columns through ``memoryview`` without re-serialising;
* negotiation works in both directions on one port: the server answers
  protocol-2 NDJSON clients unchanged and reports one protocol on ping
  and ``/healthz``; against an older (protocol 2 or 3) server an
  ``auto`` client downgrades silently and an ``always`` client errors;
* both wire encodings run the one server ingest path: the same tokens
  land on the same shards, bump the same metrics and record the same
  trace stages with or without a WAL, and an empty ingest acks without
  touching the log;
* a corrupted record is rejected before it can reach the WAL and the
  connection survives to carry the retry;
* WAL files written via the binary path hold the client's exact chunk
  bytes and recover bit-identically to the same stream pushed as NDJSON;
* committed golden frames pin the on-wire byte layouts across builds:
  ``tests/data/ingest-frame-v4.bin`` is what today's encoder writes,
  ``tests/data/ingest-frame-v3.bin`` (JSON record) must still be read.
"""

import collections
import io
import json
import socket
import threading
import urllib.request
from pathlib import Path

import pytest

from repro import serialization
from repro.cli import main
from repro.engine.codec import EncodedChunk, TokenCodec
from repro.service import ServiceConfig, iter_wal, recover, serve, serve_http
from repro.service.client import ServiceClient, ServiceError
from repro.service.metrics import parse_exposition
from repro.service.server import PROTOCOL_VERSION, HeavyHittersService
from repro.service.wal import (
    FRAME_ADVANCE,
    FRAME_CHUNK,
    WalError,
    WriteAheadLog,
    encode_chunk_record,
    encode_frame,
    parse_chunk_record,
)
from repro.service.wire import (
    BINARY_MIN_PROTOCOL,
    MAX_FRAME_BYTES,
    SOCKET_FRAME_INGEST,
    SOCKET_FRAME_RESPONSE,
    SOCKET_HEADER,
    SOCKET_MAGIC,
    FrameError,
    encode_socket_frame,
    read_exact,
    read_socket_frame,
)
from repro.streams.batched import BatchedIngestor, iter_chunks
from repro.streams.generators import zipf_stream

DATA_DIR = Path(__file__).parent / "data"

#: The chunk baked into the committed golden frames.
GOLDEN_ITEMS = ["alpha", "beta", "alpha", ("10.0.0.1", 443), 7]
GOLDEN_WEIGHTS = [1.0, 2.0, 1.0, 0.5, 3.0]


def _chunk(items, weights=None) -> EncodedChunk:
    return TokenCodec().encode_chunk(items, weights)


def _serve_in_thread(config, service=None):
    """Start a server on an OS-picked port; returns (server, teardown)."""
    server = serve(config, port=0, service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def teardown():
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)

    return server, teardown


@pytest.fixture()
def v3_server():
    """A live binary-capable (default) server, torn down after."""
    server, teardown = _serve_in_thread(
        ServiceConfig(num_counters=600, num_shards=3, k=10)
    )
    try:
        yield server
    finally:
        teardown()


class _Protocol2Service(HeavyHittersService):
    """A service advertising protocol 2: an NDJSON-only server."""

    protocol = 2


@pytest.fixture()
def ndjson_server():
    """A live server that advertises protocol 2 on ping, torn down after."""
    config = ServiceConfig(num_counters=600, num_shards=3, k=10)
    server, teardown = _serve_in_thread(config, _Protocol2Service(config))
    try:
        yield server
    finally:
        teardown()


class _Protocol3Service(HeavyHittersService):
    """A service advertising protocol 3: frames whose records are JSON."""

    protocol = 3


@pytest.fixture()
def protocol_3_server():
    """A live server that advertises protocol 3 on ping, torn down after."""
    config = ServiceConfig(num_counters=600, num_shards=3, k=10)
    server, teardown = _serve_in_thread(config, _Protocol3Service(config))
    try:
        yield server
    finally:
        teardown()


@pytest.fixture()
def wal_server(tmp_path):
    """A live WAL-backed server at ``fsync=always``, torn down after."""
    server, teardown = _serve_in_thread(
        ServiceConfig(
            num_counters=600,
            num_shards=3,
            k=10,
            wal_dir=str(tmp_path / "wal"),
            fsync="always",
        )
    )
    try:
        yield server
    finally:
        teardown()


def _raw_connection(server):
    """A bare TCP connection to ``server`` (caller closes)."""
    return socket.create_connection(("127.0.0.1", server.port), timeout=10)


def _frame_roundtrip(sock, frame):
    """Send one raw frame, read one response frame back as a dict."""
    sock.sendall(frame)
    reader = sock.makefile("rb")
    try:
        frame_type, payload = read_socket_frame(reader)
    finally:
        reader.close()
    assert frame_type == SOCKET_FRAME_RESPONSE
    return json.loads(bytes(payload).decode("utf-8"))


# --------------------------------------------------------------------------- #
# Socket framing, pure codec level
# --------------------------------------------------------------------------- #


class TestSocketFraming:
    def test_round_trip(self):
        frame = encode_socket_frame(SOCKET_FRAME_INGEST, b"payload-bytes")
        assert frame[0] == SOCKET_MAGIC
        frame_type, payload = read_socket_frame(io.BytesIO(frame))
        assert frame_type == SOCKET_FRAME_INGEST
        assert bytes(payload) == b"payload-bytes"

    def test_round_trip_with_magic_already_consumed(self):
        frame = encode_socket_frame(SOCKET_FRAME_RESPONSE, b"{}")
        reader = io.BytesIO(frame)
        assert reader.read(1) == bytes([SOCKET_MAGIC])  # dispatch byte
        frame_type, payload = read_socket_frame(reader, magic_consumed=True)
        assert frame_type == SOCKET_FRAME_RESPONSE
        assert bytes(payload) == b"{}"

    def test_empty_payload_round_trips(self):
        frame = encode_socket_frame(SOCKET_FRAME_INGEST, b"")
        frame_type, payload = read_socket_frame(io.BytesIO(frame))
        assert (frame_type, bytes(payload)) == (SOCKET_FRAME_INGEST, b"")

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_socket_frame(SOCKET_FRAME_INGEST, b"x"))
        frame[0] = 0x7B  # '{' -- an NDJSON line is not a frame
        with pytest.raises(FrameError, match="magic"):
            read_socket_frame(io.BytesIO(bytes(frame)))

    def test_truncated_header_rejected(self):
        frame = encode_socket_frame(SOCKET_FRAME_INGEST, b"x")
        with pytest.raises(FrameError):
            read_socket_frame(io.BytesIO(frame[: SOCKET_HEADER.size - 2]))

    def test_truncated_payload_rejected(self):
        frame = encode_socket_frame(SOCKET_FRAME_INGEST, b"full-payload")
        with pytest.raises(FrameError):
            read_socket_frame(io.BytesIO(frame[:-3]))

    def test_oversize_declared_length_rejected_before_allocation(self):
        header = SOCKET_HEADER.pack(
            SOCKET_MAGIC, SOCKET_FRAME_INGEST, MAX_FRAME_BYTES + 1
        )
        with pytest.raises(FrameError, match="frame"):
            read_socket_frame(io.BytesIO(header))

    def test_oversize_payload_refused_at_encode(self):
        class _Huge:
            def __len__(self):
                return MAX_FRAME_BYTES + 1

        with pytest.raises(FrameError):
            encode_socket_frame(SOCKET_FRAME_INGEST, _Huge())

    def test_read_exact_loops_over_short_reads(self):
        class _Dribble:
            """A reader that returns one byte per call."""

            def __init__(self, data):
                self._data = io.BytesIO(data)

            def read(self, count):
                return self._data.read(min(count, 1))

        assert read_exact(_Dribble(b"abcdef"), 6) == b"abcdef"
        with pytest.raises(FrameError):
            read_exact(_Dribble(b"abc"), 6)


# --------------------------------------------------------------------------- #
# Chunk records: the frame payload is a CRC-framed WAL record
# --------------------------------------------------------------------------- #


class TestChunkRecord:
    def test_round_trip_is_zero_copy(self):
        chunk = _chunk(GOLDEN_ITEMS, GOLDEN_WEIGHTS)
        record = encode_chunk_record(chunk)
        payload = parse_chunk_record(record)
        assert isinstance(payload, memoryview)
        assert bytes(payload) == serialization.dump_chunk_bytes(chunk)
        decoded = serialization.load_chunk_bytes(payload)
        assert decoded.items() == GOLDEN_ITEMS
        assert [float(w) for w in decoded.weights] == GOLDEN_WEIGHTS

    def test_record_equals_wal_frame_bytes(self):
        """The wire record is byte-for-byte what ``append_chunk`` logs."""
        chunk = _chunk(["a", "b", "a"])
        assert encode_chunk_record(chunk) == encode_frame(
            FRAME_CHUNK, serialization.dump_chunk_bytes(chunk)
        )

    def test_flipped_payload_byte_fails_crc(self):
        record = bytearray(encode_chunk_record(_chunk(["a", "b"])))
        record[-1] ^= 0x01
        with pytest.raises(WalError, match="CRC"):
            parse_chunk_record(bytes(record))

    def test_wrong_frame_type_rejected(self):
        record = encode_frame(FRAME_ADVANCE, b'{"bucket": 1}')
        with pytest.raises(WalError):
            parse_chunk_record(record)

    def test_truncated_record_rejected(self):
        record = encode_chunk_record(_chunk(["a"]))
        with pytest.raises(WalError):
            parse_chunk_record(record[:-1])
        with pytest.raises(WalError):
            parse_chunk_record(record[:4])

    def test_trailing_garbage_rejected(self):
        record = encode_chunk_record(_chunk(["a"]))
        with pytest.raises(WalError):
            parse_chunk_record(record + b"\x00")

    def test_append_record_requires_a_framed_record(self, tmp_path):
        from repro.service.wal import WriteAheadLog

        log = WriteAheadLog(tmp_path / "wal")
        try:
            with pytest.raises(WalError, match="CRC-framed"):
                log.append_record(b"not a frame")
            record = encode_chunk_record(_chunk(["a", "b", "a"]))
            position = log.append_record(record)
            assert position.offset > 0
        finally:
            log.close()
        replayed = list(iter_wal(tmp_path / "wal"))
        assert len(replayed) == 1
        assert replayed[0].frame_type == FRAME_CHUNK
        assert replayed[0].payload == bytes(parse_chunk_record(record))


# --------------------------------------------------------------------------- #
# End-to-end binary ingest
# --------------------------------------------------------------------------- #


class TestBinaryIngestEndToEnd:
    def test_ping_negotiates_protocol_4(self, v3_server):
        with ServiceClient(port=v3_server.port) as client:
            assert client.protocol is None  # not negotiated yet
            assert client.ping()
            assert client.protocol == BINARY_MIN_PROTOCOL == 4

    def test_binary_ingest_answers_queries_correctly(self, v3_server):
        stream = zipf_stream(num_items=400, alpha=1.2, total=20_000, seed=8)
        flows = [
            ("10.0.0.1", 1024 + int(index) % 128, "tcp") for index in stream.items
        ]
        exact = collections.Counter(flows)
        with ServiceClient(port=v3_server.port, binary="always") as client:
            pushed = 0
            for chunk in iter_chunks(flows, 4_096):
                pushed += client.ingest(chunk)
            assert pushed == len(flows)
            client.snapshot(drain=True)
            top = client.top_k(5)
        assert top[0][0] == exact.most_common(1)[0][0]
        # Every acked chunk rode a frame: the per-protocol counter proves
        # nothing silently fell back to NDJSON.
        exposition = v3_server.service.metrics.render()
        assert 'repro_ingest_requests_total{protocol="binary"}' in exposition

    def test_frames_and_ndjson_interleave_on_one_connection(self, v3_server):
        with ServiceClient(port=v3_server.port) as client:
            assert client.ingest(["x"] * 30 + ["y"] * 10) == 40  # frame
            assert client.ping()  # NDJSON line on the same socket
            assert client.ingest(["x"] * 5) == 5  # frame again
            client.snapshot(drain=True)
            assert client.estimate("x") == 35.0
            assert client.estimate("y") == 10.0

    def test_ingest_chunk_ships_preencoded_columns(self, v3_server):
        codec = TokenCodec()
        with ServiceClient(port=v3_server.port) as client:
            chunk = codec.encode_chunk(["a", "b", "a"], [2.0, 1.0, 2.0])
            assert client.ingest_chunk(chunk) == 3
            client.snapshot(drain=True)
            assert client.estimate("a") == 4.0

    def test_batched_ingestor_drives_one_persistent_connection(self, v3_server):
        """A client is an ``update_batch`` target: BatchedIngestor with a
        codec streams encoded chunks over one socket as binary frames."""
        stream = zipf_stream(num_items=200, alpha=1.3, total=10_000, seed=21)
        items = [f"token-{int(v)}" for v in stream.items]
        ingestor = BatchedIngestor(chunk_size=2_048, codec=TokenCodec())
        with ServiceClient(port=v3_server.port) as client:
            ingestor.feed(client, items)
            client.snapshot(drain=True)
            exact = collections.Counter(items)
            heaviest, count = exact.most_common(1)[0]
            assert client.estimate(heaviest) >= count
        assert ingestor.tokens_processed == len(items)
        exposition = v3_server.service.metrics.render()
        assert 'repro_ingest_requests_total{protocol="binary"}' in exposition

    def test_traced_ingest_rides_ndjson_with_full_span_chain(self, wal_server):
        with ServiceClient(port=wal_server.port) as client:
            assert client.ingest(["traced"] * 10, trace=True) == 10
            trace = client.last_trace
        assert trace is not None
        spans = [span["name"] for span in trace["spans"]]
        assert "decode" in spans and "wal_append" in spans

    def test_binary_never_mode_uses_ndjson_only(self, v3_server):
        with ServiceClient(port=v3_server.port, binary="never") as client:
            assert client.ingest(["plain"] * 7) == 7
        exposition = v3_server.service.metrics.render()
        assert 'repro_ingest_requests_total{protocol="json"}' in exposition
        assert 'repro_ingest_requests_total{protocol="binary"}' not in exposition

    def test_uncarriable_token_fails_before_the_socket(self, v3_server):
        with ServiceClient(port=v3_server.port, binary="always") as client:
            with pytest.raises(serialization.SerializationError):
                client.ingest([{"a": "dict"}])
            assert client.protocol is None  # nothing ever touched the wire

    def test_bad_weights_surface_as_service_error(self, v3_server):
        with ServiceClient(port=v3_server.port, binary="always") as client:
            with pytest.raises(ServiceError, match="finite"):
                client.ingest(["a"], [float("nan")])

    def test_invalid_binary_mode_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            ServiceClient(port=1, binary="sometimes")

    def test_from_url_http_refuses_always_mode(self):
        with pytest.raises(ValueError, match="TCP"):
            ServiceClient.from_url("http://127.0.0.1:80", binary="always")


# --------------------------------------------------------------------------- #
# One ingest path behind both encodings
# --------------------------------------------------------------------------- #

#: Tokens spread over both shards of a two-shard service.
PATH_TOKENS = ["a", "b", "c", "d", ("10.0.0.1", 443), "a", "b", "a"] * 4

#: Forced-trace span names per encoding; ``wal_append`` only with a WAL.
PATH_SPANS = {
    "json": ["decode", "admission", "wal_append", "shard_apply", "shard_apply", "shard_enqueue"],
    "binary": ["decode", "wal_append", "shard_apply", "shard_apply", "shard_enqueue"],
}


def _ingest_request(protocol, items):
    """The request each transport hands ``HeavyHittersService.handle``."""
    if protocol == "json":
        keys = [serialization.encode_item_key(item) for item in items]
        return {"op": "ingest", "items": keys, "encoding": "tagged"}
    return {"op": "ingest-binary", "record": encode_chunk_record(_chunk(items))}


def _ingest_samples(service):
    samples = parse_exposition(service.metrics.render())
    return samples.get("repro_ingest_requests_total", {}), samples.get(
        "repro_ingest_batches_total", {}
    ).get((), 0.0)


class TestOneIngestPath:
    @pytest.mark.parametrize("wal", [False, True], ids=["no-wal", "wal"])
    @pytest.mark.parametrize("protocol", ["json", "binary"])
    def test_same_tokens_same_shards_metrics_and_spans(
        self, protocol, wal, tmp_path
    ):
        config = ServiceConfig(
            num_counters=64,
            num_shards=2,
            wal_dir=str(tmp_path / "wal") if wal else None,
            fsync="off",
            trace_sample_rate=0.0,
        )
        with HeavyHittersService(config) as service:
            expected = [collections.Counter(), collections.Counter()]
            for item in PATH_TOKENS:
                expected[service.sharded.shard_of(item)][item] += 1.0
            assert all(expected)  # both shards get tokens
            requests_before, batches_before = _ingest_samples(service)
            request = _ingest_request(protocol, PATH_TOKENS)
            response = service.handle({**request, "trace": {"force": True}})
            requests_after, batches_after = _ingest_samples(service)
            counters = [
                estimator.counters()
                for estimator in service.sharded.shard_summaries()
            ]
        assert response["ingested"] == len(PATH_TOKENS)
        ack_keys = {"ok", "ingested", "tokens_enqueued", "trace"}
        assert set(response) == ack_keys | ({"wal", "durable"} if wal else set())
        assert counters == [dict(shard) for shard in expected]
        label = (("protocol", protocol),)
        assert requests_after[label] - requests_before.get(label, 0.0) == 1.0
        assert sum(requests_after.values()) - sum(requests_before.values()) == 1.0
        assert batches_after - batches_before == 1.0
        names = [span["name"] for span in response["trace"]["spans"]]
        spans = [name for name in PATH_SPANS[protocol] if wal or name != "wal_append"]
        assert names == spans

    def test_empty_ingests_leave_the_wal_untouched(self, tmp_path):
        wal_dir = tmp_path / "wal"
        config = ServiceConfig(num_counters=64, num_shards=2, wal_dir=str(wal_dir))
        with HeavyHittersService(config) as service:
            assert service.handle(_ingest_request("json", PATH_TOKENS))["ok"]
            tail = service.wal.tail()
            for protocol in ("json", "binary"):
                response = service.handle(_ingest_request(protocol, []))
                assert response["ok"] and response["ingested"] == 0
                assert response["wal"] == tail.as_dict()
                assert service.wal.tail() == tail
        result = recover(wal_dir)
        assert result.tokens_replayed == len(PATH_TOKENS)
        assert result.chunks_replayed == 1


# --------------------------------------------------------------------------- #
# Negotiation, both directions
# --------------------------------------------------------------------------- #


class TestNegotiation:
    def test_ndjson_server_advertises_protocol_2(self, ndjson_server):
        with ServiceClient(port=ndjson_server.port) as client:
            assert client.ping()
            assert client.protocol == 2

    def test_auto_client_downgrades_and_still_ingests(self, ndjson_server):
        with ServiceClient(port=ndjson_server.port, binary="auto") as client:
            assert client.ingest(["legacy"] * 12) == 12
            chunk = TokenCodec().encode_chunk(["legacy"] * 3)
            assert client.ingest_chunk(chunk) == 3  # falls back to NDJSON
            client.snapshot(drain=True)
            assert client.estimate("legacy") == 15.0
        exposition = ndjson_server.service.metrics.render()
        assert 'repro_ingest_requests_total{protocol="json"}' in exposition
        assert 'repro_ingest_requests_total{protocol="binary"}' not in exposition

    def test_auto_client_falls_back_to_ndjson_against_protocol_3(
        self, protocol_3_server
    ):
        """A protocol-3 server would read a packed record as JSON text."""
        with ServiceClient(port=protocol_3_server.port, binary="auto") as client:
            assert client.ingest([("flow", 1)] * 4 + ["plain"]) == 5
            assert client.ingest_chunk(TokenCodec().encode_chunk(["plain"] * 3)) == 3
            assert client.protocol == 3
            client.snapshot(drain=True)
            assert client.estimate(("flow", 1)) == 4.0
            assert client.estimate("plain") == 4.0
        exposition = protocol_3_server.service.metrics.render()
        assert 'repro_ingest_requests_total{protocol="json"}' in exposition
        assert 'repro_ingest_requests_total{protocol="binary"}' not in exposition

    def test_always_client_refuses_protocol_3_server(self, protocol_3_server):
        with ServiceClient(port=protocol_3_server.port, binary="always") as client:
            with pytest.raises(ServiceError, match="protocol 3"):
                client.ingest(["nope"])

    def test_always_client_refuses_protocol_2_server(self, ndjson_server):
        with ServiceClient(port=ndjson_server.port, binary="always") as client:
            with pytest.raises(ServiceError, match="protocol 2"):
                client.ingest(["nope"])

    def test_ping_and_healthz_report_one_protocol(self, v3_server):
        with ServiceClient(port=v3_server.port) as client:
            ping = client.call({"op": "ping"})
        assert ping["protocol"] == PROTOCOL_VERSION
        assert ping["binary"] is True
        http = serve_http(port=0, service=v3_server.service)
        try:
            url = f"http://127.0.0.1:{http.port}/healthz"
            with urllib.request.urlopen(url, timeout=10) as response:
                healthz = json.loads(response.read().decode("utf-8"))
        finally:
            http.close()
        assert healthz["protocol"] == ping["protocol"] == PROTOCOL_VERSION

    def test_protocol_2_ndjson_client_works_against_v3_server(self, v3_server):
        """A legacy client is raw NDJSON lines: no ping, no frames."""
        with _raw_connection(v3_server) as sock:
            reader = sock.makefile("rb")
            for request in (
                {"op": "ingest", "items": ["old"] * 9},
                {"op": "snapshot", "drain": True},
                {"op": "query", "type": "point", "item": "old"},
            ):
                sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
                response = json.loads(reader.readline().decode("utf-8"))
                assert response["ok"] is True
            assert response["estimate"] == 9.0
            reader.close()

    def test_unknown_frame_type_errors_but_connection_survives(self, v3_server):
        with _raw_connection(v3_server) as sock:
            response = _frame_roundtrip(
                sock, encode_socket_frame(SOCKET_FRAME_RESPONSE, b"{}")
            )
            assert response["ok"] is False
            # Same connection still carries a good frame afterwards.
            good = encode_socket_frame(
                SOCKET_FRAME_INGEST, encode_chunk_record(_chunk(["ok"]))
            )
            response = _frame_roundtrip(sock, good)
            assert response["ok"] is True and response["ingested"] == 1


# --------------------------------------------------------------------------- #
# Corruption: rejected before the WAL, connection survives
# --------------------------------------------------------------------------- #


class TestFrameReplies:
    def test_json_line_reply_to_a_frame_raises_service_error(self):
        """A protocol-4 server answers a frame with a frame; any other
        reply fails the frame reader's magic check and is raised as
        ServiceError at once, without waiting for more bytes."""
        listener = socket.create_server(("127.0.0.1", 0))
        frames = []

        def stub():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                reader.readline()  # the client's ping
                conn.sendall(b'{"ok": true, "protocol": 4, "binary": true}\n')
                _, frame_type, length = SOCKET_HEADER.unpack(
                    reader.read(SOCKET_HEADER.size)
                )
                frames.append((frame_type, reader.read(length)))
                conn.sendall(b'{"ok": false, "error": "not a frame"}\n')
                reader.read()  # hold the connection open until the client closes

        thread = threading.Thread(target=stub, daemon=True)
        thread.start()
        try:
            port = listener.getsockname()[1]
            with ServiceClient(port=port, binary="always", timeout=5) as client:
                with pytest.raises(ServiceError, match="bad frame magic"):
                    client.ingest(["a", "b", "a"])
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            listener.close()
        assert [frame_type for frame_type, _ in frames] == [SOCKET_FRAME_INGEST]

    @staticmethod
    def _stub(reply_to_ping: bytes, reply_to_frame: bytes | None):
        """A one-connection stub server; returns (listener, thread)."""
        listener = socket.create_server(("127.0.0.1", 0))

        def stub():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                reader.readline()  # the client's ping
                conn.sendall(reply_to_ping)
                if reply_to_frame is not None:
                    _, _, length = SOCKET_HEADER.unpack(reader.read(SOCKET_HEADER.size))
                    reader.read(length)
                    conn.sendall(reply_to_frame)
                reader.read()  # hold the connection open until the client closes

        thread = threading.Thread(target=stub, daemon=True)
        thread.start()
        return listener, thread

    def test_next_call_after_a_non_frame_reply_raises_service_error(self):
        """The rest of a JSON-line reply to a frame must not be read as
        the next reply: the client closes, and ping raises ServiceError."""
        listener, thread = self._stub(
            b'{"ok": true, "protocol": 4, "binary": true}\n',
            b'{"ok": false, "error": "not a frame"}\n',
        )
        try:
            port = listener.getsockname()[1]
            with ServiceClient(port=port, binary="always", timeout=5) as client:
                with pytest.raises(ServiceError, match="bad frame magic"):
                    client.ingest(["a", "b", "a"])
                with pytest.raises(ServiceError, match="protocol error"):
                    client.ping()
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            listener.close()

    def test_malformed_json_reply_raises_service_error(self):
        listener, thread = self._stub(b"{not json\n", None)
        try:
            port = listener.getsockname()[1]
            with ServiceClient(port=port, timeout=5) as client:
                with pytest.raises(ServiceError, match="malformed JSON reply"):
                    client.ping()
                with pytest.raises(ServiceError, match="protocol error"):
                    client.stats()
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            listener.close()


class TestCorruptFrames:
    def test_crc_corrupt_record_rejected_and_never_logged(self, wal_server):
        record = bytearray(encode_chunk_record(_chunk(["corrupt"] * 5)))
        record[-1] ^= 0xFF
        with _raw_connection(wal_server) as sock:
            response = _frame_roundtrip(
                sock, encode_socket_frame(SOCKET_FRAME_INGEST, bytes(record))
            )
            assert response["ok"] is False
            assert "CRC" in response["error"]
            assert wal_server.service.wal.frames_appended == 0
            # The stream stays in sync: a clean retry on the same socket.
            good = encode_socket_frame(
                SOCKET_FRAME_INGEST, encode_chunk_record(_chunk(["clean"] * 5))
            )
            response = _frame_roundtrip(sock, good)
            assert response["ok"] is True and response["ingested"] == 5
            assert wal_server.service.wal.frames_appended == 1

    def test_crc_valid_bad_payload_rejected_and_wal_unchanged(self, wal_server):
        """A CRC only proves the bytes arrived intact, not that they decode."""
        packed = serialization.dump_chunk_bytes(_chunk(["bad"] * 5))
        wal_dir = Path(wal_server.service.wal.directory)

        def wal_bytes():
            return sum(path.stat().st_size for path in wal_dir.glob("wal-*.log"))

        before = wal_bytes()
        with _raw_connection(wal_server) as sock:
            for payload in (packed + b"\x00", packed[:-1], b"\x89RCK\x09"):
                frame = encode_socket_frame(
                    SOCKET_FRAME_INGEST, encode_frame(FRAME_CHUNK, payload)
                )
                response = _frame_roundtrip(sock, frame)
                assert response["ok"] is False
                assert wal_server.service.wal.frames_appended == 0
                assert wal_bytes() == before
            good = encode_socket_frame(
                SOCKET_FRAME_INGEST, encode_chunk_record(_chunk(["clean"] * 5))
            )
            response = _frame_roundtrip(sock, good)
            assert response["ok"] is True and response["ingested"] == 5
        assert wal_bytes() > before

    def test_garbage_after_magic_byte_closes_with_frame_error(self, v3_server):
        with _raw_connection(v3_server) as sock:
            sock.sendall(bytes([SOCKET_MAGIC, 0xEE]) + b"\xff" * 4)
            reader = sock.makefile("rb")
            frame_type, payload = read_socket_frame(reader)
            assert frame_type == SOCKET_FRAME_RESPONSE
            response = json.loads(bytes(payload).decode("utf-8"))
            assert response["ok"] is False
            assert reader.read(1) == b""  # desynced stream: connection closed
            reader.close()


# --------------------------------------------------------------------------- #
# Durability: client bytes land in the WAL verbatim and replay identically
# --------------------------------------------------------------------------- #


class TestWalByteIdentity:
    def test_wal_holds_the_clients_exact_bytes(self, wal_server, tmp_path):
        stream = zipf_stream(num_items=100, alpha=1.2, total=5_000, seed=13)
        items = [f"flow-{int(v)}" for v in stream.items]
        chunks = list(iter_chunks(items, 1_024))
        with ServiceClient(port=wal_server.port, binary="always") as client:
            for chunk in chunks:
                client.ingest(chunk)
                assert client.last_ingest_durable  # fsync=always
        # Mirror the client's interning: one codec across the whole stream.
        mirror = TokenCodec()
        expected = [
            serialization.dump_chunk_bytes(mirror.encode_chunk(chunk))
            for chunk in chunks
        ]
        wal_dir = Path(wal_server.service.wal.directory)
        records = [r for r in iter_wal(wal_dir) if r.frame_type == FRAME_CHUNK]
        assert [r.payload for r in records] == expected

    def test_binary_and_ndjson_ingest_recover_bit_identically(self, tmp_path):
        stream = zipf_stream(num_items=300, alpha=1.1, total=15_000, seed=29)
        items = [("host", int(v) % 64, f"svc-{int(v)}") for v in stream.items]
        dumps = {}
        for mode in ("always", "never"):
            wal_dir = tmp_path / f"wal-{mode}"
            server, teardown = _serve_in_thread(
                ServiceConfig(
                    num_counters=400,
                    num_shards=3,
                    k=8,
                    wal_dir=str(wal_dir),
                    fsync="always",
                )
            )
            try:
                with ServiceClient(port=server.port, binary=mode) as client:
                    for chunk in iter_chunks(items, 2_048):
                        client.ingest(chunk)
            finally:
                teardown()
            result = recover(wal_dir)
            assert result.tokens_replayed == len(items)
            dumps[mode] = [
                serialization.dumps(estimator) for estimator in result.estimators
            ]
        # Same stream, either wire: recovery rebuilds identical shards.
        assert dumps["always"] == dumps["never"]

    def test_wal_mixing_json_and_packed_records_recovers_identically(
        self, tmp_path
    ):
        """Segments from earlier builds hold JSON records; a log that
        switches format mid-stream replays as if it had been packed
        throughout."""
        stream = zipf_stream(num_items=300, alpha=1.1, total=12_000, seed=31)
        items = [("host", int(v) % 64, f"svc-{int(v)}") for v in stream.items]
        chunks = list(iter_chunks(items, 1_500))
        dumps = {}
        for layout in ("packed", "mixed"):
            codec = TokenCodec()
            log = WriteAheadLog(tmp_path / layout, fsync="off")
            try:
                for index, items_chunk in enumerate(chunks):
                    chunk = codec.encode_chunk(items_chunk, [1.0] * len(items_chunk))
                    if layout == "mixed" and index % 2 == 0:
                        legacy = json.dumps(
                            serialization.dump_chunk(chunk),
                            sort_keys=True,
                            separators=(",", ":"),
                        ).encode("utf-8")
                        log.append_record(encode_frame(FRAME_CHUNK, legacy))
                    else:
                        log.append_record(encode_chunk_record(chunk))
            finally:
                log.close()
            result = recover(
                tmp_path / layout,
                make_estimator=ServiceConfig(num_counters=300).make_estimator,
                num_shards=3,
            )
            assert result.tokens_replayed == len(items)
            dumps[layout] = [serialization.dumps(e) for e in result.estimators]
        assert dumps["mixed"] == dumps["packed"]


# --------------------------------------------------------------------------- #
# Golden frames: the committed byte layouts must stay ingestible
# --------------------------------------------------------------------------- #


class TestGoldenV3Frame:
    """A protocol-3 frame, whose record holds JSON text: the older format
    that a current server must still read."""

    FIXTURE = DATA_DIR / "ingest-frame-v3.bin"

    def test_fixture_parses_layer_by_layer(self):
        raw = self.FIXTURE.read_bytes()
        magic, frame_type, length = SOCKET_HEADER.unpack_from(raw)
        assert (magic, frame_type) == (SOCKET_MAGIC, SOCKET_FRAME_INGEST)
        assert length == len(raw) - SOCKET_HEADER.size
        frame_type, record = read_socket_frame(io.BytesIO(raw))
        assert frame_type == SOCKET_FRAME_INGEST
        chunk = serialization.load_chunk_bytes(parse_chunk_record(record))
        assert chunk.items() == GOLDEN_ITEMS
        assert [float(w) for w in chunk.weights] == GOLDEN_WEIGHTS

    def test_fixture_replays_against_a_live_server(self, v3_server):
        with _raw_connection(v3_server) as sock:
            response = _frame_roundtrip(sock, self.FIXTURE.read_bytes())
        assert response["ok"] is True and response["ingested"] == 5
        with ServiceClient(port=v3_server.port) as client:
            client.snapshot(drain=True)
            assert client.estimate("alpha") == 2.0
            assert client.estimate(("10.0.0.1", 443)) == 0.5


class TestGoldenV4Frame:
    """A protocol-4 frame: the packed chunk record today's encoder writes."""

    FIXTURE = DATA_DIR / "ingest-frame-v4.bin"

    def test_fixture_matches_current_encoder(self):
        """Today's encoder still produces the committed bytes."""
        chunk = _chunk(GOLDEN_ITEMS, GOLDEN_WEIGHTS)
        frame = encode_socket_frame(SOCKET_FRAME_INGEST, encode_chunk_record(chunk))
        assert frame == self.FIXTURE.read_bytes()

    def test_fixture_decodes_to_the_golden_chunk(self):
        _, record = read_socket_frame(io.BytesIO(self.FIXTURE.read_bytes()))
        payload = parse_chunk_record(record)
        assert bytes(payload[:4]) == serialization.PACKED_CHUNK_MAGIC
        chunk = serialization.load_chunk_bytes(payload)
        assert chunk.items() == GOLDEN_ITEMS
        assert [float(w) for w in chunk.weights] == GOLDEN_WEIGHTS


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #


class TestCliBinaryFlag:
    def test_query_binary_refused_cleanly_by_ndjson_server(
        self, ndjson_server, tmp_path
    ):
        workload = tmp_path / "tokens.txt"
        workload.write_text("alpha\nbeta\nalpha\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "query",
                    "ingest",
                    "--port",
                    str(ndjson_server.port),
                    "--input",
                    str(workload),
                    "--binary",
                ]
            )
        message = str(excinfo.value)
        assert message.startswith("service error:")
        assert "protocol 2" in message and "\n" not in message

    def test_query_binary_with_http_is_an_immediate_error(self):
        with pytest.raises(SystemExit, match="TCP"):
            main(
                [
                    "query",
                    "ingest",
                    "--port",
                    "80",
                    "--http",
                    "--input",
                    "unused",
                    "--binary",
                ]
            )

    def test_query_binary_succeeds_against_v3_server(
        self, v3_server, tmp_path, capsys
    ):
        workload = tmp_path / "tokens.txt"
        workload.write_text("alpha\nbeta\nalpha\n", encoding="utf-8")
        assert (
            main(
                [
                    "query",
                    "ingest",
                    "--port",
                    str(v3_server.port),
                    "--input",
                    str(workload),
                    "--binary",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert json.loads(out)["ingested"] == 3
        exposition = v3_server.service.metrics.render()
        assert 'repro_ingest_requests_total{protocol="binary"}' in exposition

    def test_serve_parser_rejects_no_binary(self, capsys):
        """Every server takes frames; there is no switch to refuse them."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--no-binary"])
        assert excinfo.value.code == 2
        assert "--no-binary" in capsys.readouterr().err
