"""Binary socket framing for the wire protocol (versions 3 and 4).

Protocol v2 carries every message as one NDJSON line; for bulk ingest
that means the columnar chunk a producer already holds is serialised to
JSON text, parsed server-side, and re-encoded a second time for the
write-ahead log.  Protocol v3 added a *binary frame* that can interleave
with NDJSON lines on the same TCP connection::

    +-------+------+----------------+-----------------------------+
    | magic | type | payload length | payload bytes               |
    | 0xB3  | u8   | u32 LE         |                             |
    +-------+------+----------------+-----------------------------+

The magic byte ``0xB3`` can never start an NDJSON message (request lines
begin with ``{``), so the server dispatches per message on the first
byte: ``0xB3`` reads one frame, anything else falls back to the line
reader.  That keeps protocol-2 clients working unchanged on the same
port -- negotiation is simply the ``ping`` response's ``protocol`` field.

Protocol v4 keeps the framing and changes what an ingest frame's chunk
record holds: the packed little-endian chunk of
:func:`repro.serialization.dump_chunk_bytes` instead of JSON text::

    magic "\\x89RCK" | version u8 | flags u8 (bit 0: weights)
    | tokens u32 | entries u32 | key bytes u32
    | entries x u32 key length | UTF-8 tagged keys, back to back
    | tokens x local id (u16 when entries <= 65536, else u32)
    | tokens x f64 weight (only when flagged)

A v4 client only sends frames to a server advertising protocol 4 or
more (older servers would read the record as JSON); a v4 server still
takes v3 frames, whose records it tells apart by their first bytes.

Frame types:

``SOCKET_FRAME_INGEST``
    Payload is one complete CRC-framed WAL chunk record
    (:func:`repro.service.wal.encode_chunk_record`): marker + type +
    length + crc32 + packed chunk bytes.  The server validates
    the embedded CRC, appends the received buffer to the WAL verbatim,
    and decodes the columns from a memoryview -- the payload is
    materialised exactly once end to end.

``SOCKET_FRAME_RESPONSE``
    Payload is the UTF-8 JSON response object (the same shape the NDJSON
    path answers with).  Binary requests get binary responses so the
    client never has to guess the reader mode.

This module is deliberately tiny and dependency-free: both the server's
frame dispatcher and the client's binary ingest path import it, so the
two sides cannot drift apart.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

#: First byte of every binary socket frame.  Outside the ASCII range, so
#: no NDJSON request line can begin with it.
SOCKET_MAGIC = 0xB3

#: Protocol version whose frames carry packed chunk records; a client only
#: sends frames after a ping negotiated at least this.
BINARY_MIN_PROTOCOL = 4

#: Frame types.
SOCKET_FRAME_INGEST = 1
SOCKET_FRAME_RESPONSE = 2

#: magic (u8), frame type (u8), payload length (u32 LE).
SOCKET_HEADER = struct.Struct("<BBI")

#: Upper bound on one frame payload.  Far above any sane ingest chunk
#: (the default chunk is 8k tokens); a length past this is a corrupt or
#: hostile header, not a big chunk, and is rejected before allocation.
MAX_FRAME_BYTES = 64 << 20


class FrameError(RuntimeError):
    """A binary socket frame is malformed, oversized, or truncated."""


def encode_socket_frame(frame_type: int, payload: bytes) -> bytes:
    """One complete binary frame, ready to send."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return SOCKET_HEADER.pack(SOCKET_MAGIC, frame_type, len(payload)) + payload


def read_exact(reader: BinaryIO, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`FrameError`.

    A buffered socket reader may return short reads; a short *final* read
    means the peer closed mid-frame, which is a framing error (the stream
    can never be resynchronised) rather than a clean EOF.
    """
    data = reader.read(count)
    if data is None:
        data = b""
    while len(data) < count:
        more = reader.read(count - len(data))
        if not more:
            raise FrameError(
                f"connection closed mid-frame ({len(data)} of {count} bytes)"
            )
        data += more
    return data


def read_socket_frame(
    reader: BinaryIO, magic_consumed: bool = False
) -> tuple[int, bytes]:
    """Read one frame; returns ``(frame_type, payload)``.

    ``magic_consumed=True`` is for the server's dispatcher, which has
    already read (and matched) the first byte to decide between the frame
    and line readers.
    """
    header = read_exact(reader, SOCKET_HEADER.size - (1 if magic_consumed else 0))
    if magic_consumed:
        header = bytes((SOCKET_MAGIC,)) + header
    magic, frame_type, length = SOCKET_HEADER.unpack(header)
    if magic != SOCKET_MAGIC:
        raise FrameError(
            f"bad frame magic 0x{magic:02X} (expected 0x{SOCKET_MAGIC:02X})"
        )
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    return frame_type, read_exact(reader, length)
