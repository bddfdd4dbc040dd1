"""Segmented write-ahead log for the heavy-hitters service.

Snapshots make the service's *query* state durable, but every token
ingested since the last snapshot used to live only in shard memory -- a
crash lost it silently.  The WAL closes that gap: each ingest chunk is
appended to an on-disk log **before** it is handed to the shards, so
after a crash the service state is reconstructible as

    latest checkpoint  +  replay of every logged chunk after it,

which is exactly the merge-then-recover discipline Theorem 11 already
licenses -- replayed chunks flow through the same ``update_batch`` fast
path as live traffic, so a replay from empty rebuilds state bit-identical
to the crashed process's, and a replay on top of a checkpoint preserves
every estimate and per-item error bound (the checkpoint's serialisation
round trip rebuilds internal acceleration structures only).

Physical layout (one directory):

``wal-<NNNNNNNN>.log``
    Append-only segments.  Each starts with a 10-byte magic
    (``REPROWAL1\\n``) followed by CRC-framed records::

        +--------+------+----------------+-------+-----------------+
        | marker | type | payload length | crc32 | payload bytes   |
        |  0xA5  | u8   | u32 LE         | u32LE |                 |
        +--------+------+----------------+-------+-----------------+

    Chunk records carry :func:`repro.serialization.dump_chunk_bytes`
    payloads: one packed little-endian chunk, compacted vocabulary
    included, so every record decodes on its own::

        magic "\\x89RCK" | version u8 | flags u8 (bit 0: weights)
        | tokens u32 | entries u32 | key bytes u32
        | entries x u32 key length | UTF-8 tagged keys, back to back
        | tokens x local id (u16 when entries <= 65536, else u32)
        | tokens x f64 weight (only when flagged)

    (an outside client may gzip it whole; the reader detects that).
    Records from earlier builds hold the JSON chunk form instead; replay
    reads both, dispatching on the first bytes.  Window-advance records
    carry a tiny JSON body.  A crash can tear the final frame of the
    final segment; recovery *truncates* the torn tail (reporting how many
    bytes were dropped) instead of failing, while a bad frame anywhere
    **before** the tail is real corruption and raises :class:`WalError`.

``checkpoint-<NNNNNN>.json``
    An atomic (write + rename) snapshot of every shard summary plus the
    WAL position it covers: replay resumes exactly at that position, and
    segments wholly before it can be pruned.

``wal-config.json``
    The service configuration manifest, so ``repro recover`` needs no
    flags to rebuild the right estimators.

Fsync policy (``fsync=``):

=============  ========================================================
``"always"``   fsync after every append; an *acked* ingest is on disk.
``"interval"`` flush every append, fsync at most every
               ``fsync_interval`` seconds (bounded loss window).
``"off"``      flush only; durability is whatever the OS page cache
               gives you (benchmarking / best-effort).
=============  ========================================================

Appends never touch a pre-existing segment: a reopened log always starts
a fresh segment after the highest existing index.  Reopening *repairs*
the previous final segment first -- its torn tail (if any) is physically
truncated, because damage that is tolerable at the end of the log would
poison every later recovery once newer segments exist behind it.

Retry semantics: the service surfaces pending shard failures *before*
appending, so the common failure mode (a previous batch poisoned a
shard) errors out without logging the new chunk.  The residual window --
append succeeds, then the process dies before the ack leaves the socket
-- means recovery may contain chunks the producer never saw acked;
producers that retry un-acked chunks get at-least-once, not exactly-once,
delivery (idempotence requires deduplication upstream).
"""

from __future__ import annotations

# repro-lint: hot-path

import json
import os
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro import serialization
from repro.engine.codec import EncodedChunk, TokenCodec

if TYPE_CHECKING:  # pragma: no cover - annotation-only; the WAL stays
    from repro.service.tracing import Trace  # decoupled from tracing at runtime

#: Valid values of the ``fsync`` knob.
FSYNC_POLICIES = ("always", "interval", "off")

SEGMENT_MAGIC = b"REPROWAL1\n"
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"
#: Width-open (``{8,}``): the ``:08d`` writer format grows past 8 digits
#: for very long-lived logs, and such segments must stay visible.
_SEGMENT_PATTERN = re.compile(r"^wal-(\d{8,})\.log$")

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"
_CHECKPOINT_PATTERN = re.compile(r"^checkpoint-(\d{6,})\.json$")
CHECKPOINT_FORMAT = "repro-wal-checkpoint"
CHECKPOINT_VERSION = 1

MANIFEST_NAME = "wal-config.json"
MANIFEST_FORMAT = "repro-wal-config"

#: Frame marker byte; a frame whose first byte is not this is torn/corrupt.
FRAME_MARKER = 0xA5
#: Frame types.
FRAME_CHUNK = 1
FRAME_ADVANCE = 2

#: marker (u8), frame type (u8), payload length (u32 LE), crc32 (u32 LE).
_FRAME_HEADER = struct.Struct("<BBII")

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 16 << 20
#: Default fsync cadence for ``fsync="interval"``.
DEFAULT_FSYNC_INTERVAL = 1.0


class WalError(RuntimeError):
    """The write-ahead log is corrupt, closed, or misused."""


@dataclass(frozen=True, order=True)
class WalPosition:
    """A byte position in the log: (segment index, offset within segment).

    Positions order lexicographically, so ``replayed.position > checkpoint``
    is exactly "this frame is not covered by the checkpoint".  A frame's
    position is the offset *after* its last byte -- the point replay
    resumes from.
    """

    segment: int
    offset: int

    def as_dict(self) -> dict[str, int]:
        return {"segment": self.segment, "offset": self.offset}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> WalPosition:
        try:
            return cls(segment=int(payload["segment"]), offset=int(payload["offset"]))
        except (KeyError, TypeError, ValueError) as error:
            raise WalError(f"invalid WAL position {payload!r}") from error


@dataclass(frozen=True)
class WalRecord:
    """One replayed frame: its type, payload, and end position."""

    position: WalPosition
    frame_type: int
    payload: bytes


@dataclass
class WalScanStats:
    """Bookkeeping accumulated while replaying a log directory."""

    segments_scanned: int = 0
    frames: int = 0
    chunk_frames: int = 0
    advance_frames: int = 0
    bytes_scanned: int = 0
    truncated_bytes: int = 0

    @property
    def torn_tail(self) -> bool:
        return self.truncated_bytes > 0


def segment_path(directory: str | Path, index: int) -> Path:
    return Path(directory) / f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def list_segments(directory: str | Path) -> list[tuple[int, Path]]:
    """All segment files in ``directory``, sorted by index."""
    segments = []
    for entry in Path(directory).iterdir():
        match = _SEGMENT_PATTERN.match(entry.name)
        if match:
            segments.append((int(match.group(1)), entry))
    segments.sort()
    return segments


def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """One CRC-framed record, ready to append."""
    return (
        _FRAME_HEADER.pack(
            FRAME_MARKER, frame_type, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
        )
        + payload
    )


def encode_chunk_record(chunk: EncodedChunk) -> bytes:
    """One complete CRC-framed chunk record (header + packed chunk payload).

    This is the *only* chunk serialisation in the system: the WAL appends
    it, and a wire-protocol-v3 client ships the identical bytes inside a
    socket ingest frame -- so the server can validate the CRC and append
    the received buffer verbatim, with no re-serialisation.
    """
    return encode_frame(FRAME_CHUNK, serialization.dump_chunk_bytes(chunk))


def parse_chunk_record(record: bytes | bytearray | memoryview) -> memoryview:
    """Validate a CRC-framed chunk record; returns a view of its payload.

    The view aliases ``record`` -- no copy.  Raises :class:`WalError`
    for a bad marker, wrong frame type, length mismatch (trailing or
    missing bytes), or CRC failure.
    """
    view = memoryview(record)
    if len(view) < _FRAME_HEADER.size:
        raise WalError(
            f"chunk record of {len(view)} bytes is shorter than a frame header"
        )
    marker, frame_type, length, crc = _FRAME_HEADER.unpack_from(view, 0)
    if marker != FRAME_MARKER:
        raise WalError(
            f"bad chunk record marker 0x{marker:02X} "
            f"(expected 0x{FRAME_MARKER:02X})"
        )
    if frame_type != FRAME_CHUNK:
        raise WalError(f"frame type {frame_type} is not a chunk record")
    payload = view[_FRAME_HEADER.size :]
    if len(payload) != length:
        raise WalError(
            f"chunk record declares {length} payload bytes but carries "
            f"{len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise WalError("chunk record failed its CRC check")
    return payload


class WriteAheadLog:
    """Append-only segmented log with CRC frames and fsync policy knobs.

    Parameters
    ----------
    directory:
        Log directory (created if missing).  Existing segments are never
        appended to; writing starts in a fresh segment after the highest
        existing index.
    fsync:
        ``"always"``, ``"interval"`` or ``"off"`` (see module docstring).
    fsync_interval:
        Seconds between fsyncs under ``fsync="interval"``.
    max_segment_bytes:
        Rotate to a new segment once the current one reaches this size.
    append_timer / fsync_timer:
        Optional observers with an ``observe(seconds)`` method (e.g.
        :class:`repro.service.metrics.Histogram`) timing each append and
        each physical ``fsync``.  ``None`` (the default) keeps the append
        path observer-free -- one ``is not None`` test per append, so
        durability benchmarks without metrics measure the bare log.

    Examples
    --------
    >>> import tempfile
    >>> from repro.engine.codec import TokenCodec
    >>> tmp = tempfile.mkdtemp()
    >>> wal = WriteAheadLog(tmp, fsync="off")
    >>> position = wal.append_chunk(TokenCodec().encode_chunk(["a", "b"]))
    >>> wal.close()
    >>> [record.frame_type for record in iter_wal(tmp)]
    [1]
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: str = "interval",
        fsync_interval: float = DEFAULT_FSYNC_INTERVAL,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        append_timer: Any | None = None,
        fsync_timer: Any | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_interval <= 0:
            raise ValueError(f"fsync_interval must be positive, got {fsync_interval}")
        min_segment = len(SEGMENT_MAGIC) + _FRAME_HEADER.size
        if max_segment_bytes < min_segment:
            raise ValueError(
                f"max_segment_bytes must be >= {min_segment}, got {max_segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.max_segment_bytes = max_segment_bytes
        self._append_timer = append_timer
        self._fsync_timer = fsync_timer
        self._lock = threading.Lock()
        self._closed = False
        self._last_fsync = time.monotonic()
        self._last_fsync_seconds: float | None = None
        self._dirty = False
        self.frames_appended = 0
        self.bytes_appended = 0
        self.rotations = 0
        #: Torn-tail bytes physically truncated from the previous final
        #: segment when this log was opened (crash repair).
        self.repaired_bytes = 0
        existing = list_segments(self.directory)
        if existing:
            # Repair the crash tail *on disk*: a torn final frame was
            # tolerated by recovery while its segment was the last one,
            # but the moment this process appends to a newer segment that
            # damage would sit mid-log and poison every later recovery.
            self.repaired_bytes = _repair_segment_tail(existing[-1][1])
        self._segment_index = (existing[-1][0] + 1) if existing else 1
        # repro-lint: allow[L003] construction happens-before any concurrent access
        self._open_segment_locked()
        self._flusher_stop = threading.Event()
        self._flusher: threading.Thread | None = None
        if self.fsync == "interval":
            # The append path only fsyncs when another append arrives, so
            # without this thread a burst followed by silence could sit in
            # the page cache forever -- the documented "at most
            # fsync_interval seconds" loss window needs a clock, not just
            # traffic.
            self._flusher = threading.Thread(
                target=self._flush_loop, name="wal-fsync", daemon=True
            )
            self._flusher.start()

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def _open_segment_locked(self) -> None:
        path = segment_path(self.directory, self._segment_index)
        # noqa'd: the segment handle outlives this scope; closed on rotate/close.
        self._file = open(path, "ab")  # noqa: SIM115
        self._file.write(SEGMENT_MAGIC)
        self._file.flush()
        self._offset = len(SEGMENT_MAGIC)

    def append(
        self, frame_type: int, payload: bytes, trace: Trace | None = None
    ) -> WalPosition:
        """Frame ``payload`` and append it; returns its end position."""
        return self.append_record(encode_frame(frame_type, payload), trace=trace)

    def append_record(self, record: bytes, trace: Trace | None = None) -> WalPosition:
        """Append one *pre-framed* record verbatim; returns its end position.

        ``record`` must already carry the marker/type/length/crc header
        (:func:`encode_frame` / :func:`encode_chunk_record`) -- this is
        the zero-copy landing point for wire-protocol-v3 ingest frames,
        whose payload is exactly such a record.  Only a cheap marker
        check guards the write; callers owning untrusted bytes validate
        with :func:`parse_chunk_record` first.

        Durability at return time follows the fsync policy: under
        ``"always"`` the frame (and everything before it) is on disk.

        A sampled ``trace`` receives a ``wal_fsync`` sub-span when this
        append triggered a physical fsync (the interesting case for a
        latency investigation: the fsync is usually the whole cost).
        """
        if len(record) < _FRAME_HEADER.size or record[0] != FRAME_MARKER:
            raise WalError("append_record requires a CRC-framed record")
        timer = self._append_timer
        start = time.perf_counter() if timer is not None else 0.0
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            self._file.write(record)
            self._offset += len(record)
            self.frames_appended += 1
            self.bytes_appended += len(record)
            position = WalPosition(self._segment_index, self._offset)
            self._last_fsync_seconds = None
            self._sync_locked()
            if trace is not None and self._last_fsync_seconds is not None:
                trace.add_span("wal_fsync", self._last_fsync_seconds)
            if self._offset >= self.max_segment_bytes:
                self._rotate_locked()
        if timer is not None:
            timer.observe(time.perf_counter() - start)
        return position

    def append_chunk(self, chunk: EncodedChunk, trace: Trace | None = None) -> WalPosition:
        """Log one encoded ingest chunk (packed chunk payload)."""
        return self.append_record(encode_chunk_record(chunk), trace=trace)

    def append_advance(self, steps: int) -> WalPosition:
        """Log a window-advance so recovery reproduces bucket boundaries."""
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        payload = json.dumps({"steps": int(steps)}).encode()
        return self.append(FRAME_ADVANCE, payload)

    def _fsync_locked(self) -> None:
        """One physical fsync of the current segment, always timed.

        The duration is parked on ``_last_fsync_seconds`` so ``append``
        can attribute it to a sampled trace; the two clock reads are
        noise next to the fsync itself.
        """
        start = time.perf_counter()
        # repro-lint: allow[L002] fsync under the WAL lock IS the durability contract
        os.fsync(self._file.fileno())
        elapsed = time.perf_counter() - start
        self._last_fsync_seconds = elapsed
        timer = self._fsync_timer
        if timer is not None:
            timer.observe(elapsed)

    def _sync_locked(self) -> None:
        self._file.flush()
        if self.fsync == "always":
            self._fsync_locked()
        elif self.fsync == "interval":
            now = time.monotonic()
            if now - self._last_fsync >= self.fsync_interval:
                self._fsync_locked()
                self._last_fsync = now
                self._dirty = False
            else:
                self._dirty = True
        else:
            self._dirty = True

    def _flush_loop(self) -> None:
        """Background fsync for ``fsync="interval"``: bounds the loss
        window by wall clock even when no further append arrives."""
        while not self._flusher_stop.wait(self.fsync_interval):
            with self._lock:
                if self._closed:
                    return
                if self._dirty:
                    self._fsync_locked()
                    self._last_fsync = time.monotonic()
                    self._dirty = False

    def sync(self) -> None:
        """Force everything appended so far onto disk."""
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            self._fsync_locked()
            self._last_fsync = time.monotonic()
            self._dirty = False

    # ------------------------------------------------------------------ #
    # Segments
    # ------------------------------------------------------------------ #

    def _rotate_locked(self) -> None:
        self._file.flush()
        if self.fsync != "off":
            self._fsync_locked()
            self._dirty = False
        self._file.close()
        self._segment_index += 1
        self.rotations += 1
        self._open_segment_locked()

    def rotate(self) -> int:
        """Close the current segment and start a new one; returns its index."""
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            self._rotate_locked()
            return self._segment_index

    def tail(self) -> WalPosition:
        """The position one past the last appended byte."""
        with self._lock:
            return WalPosition(self._segment_index, self._offset)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran -- the log no longer accepts appends.

        The readiness probe's "WAL writable" check reads this: a closed
        (or never-opened) log means acked durability can no longer be
        honoured, so the service must stop advertising itself as ready.
        """
        return self._closed

    def prune_upto(self, position: WalPosition) -> int:
        """Delete segments wholly covered by ``position``; returns the count.

        Only segments with an index strictly below ``position.segment`` are
        removed -- the segment the position points into stays (its prefix
        is simply skipped at replay time).
        """
        removed = 0
        with self._lock:
            for index, path in list_segments(self.directory):
                if index >= position.segment or index == self._segment_index:
                    continue
                path.unlink()
                removed += 1
        return removed

    def close(self) -> None:
        """Flush (and, unless ``fsync="off"``, fsync) and close the log."""
        # Stop the background flusher before taking the lock: it grabs the
        # same lock on every tick, so joining it from inside would deadlock.
        self._flusher_stop.set()
        if self._flusher is not None:
            self._flusher.join()
        with self._lock:
            self._flusher = None
            if self._closed:
                return
            self._closed = True
            self._file.flush()
            if self.fsync != "off":
                # repro-lint: allow[L002] final fsync at close; no concurrent appenders remain
                os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> WriteAheadLog:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog(dir={str(self.directory)!r}, fsync={self.fsync!r}, "
            f"segment={self._segment_index}, frames={self.frames_appended})"
        )


# --------------------------------------------------------------------------- #
# Reading / replay
# --------------------------------------------------------------------------- #


def _frame_at(data: bytes, offset: int) -> tuple[int, int, bytes] | None:
    """Parse one frame at ``offset``; ``(frame_type, end, payload)`` or None."""
    if len(data) - offset < _FRAME_HEADER.size:
        return None
    marker, frame_type, length, crc = _FRAME_HEADER.unpack_from(data, offset)
    if marker != FRAME_MARKER:
        return None
    body_start = offset + _FRAME_HEADER.size
    if len(data) - body_start < length:
        return None
    payload = data[body_start : body_start + length]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    return frame_type, body_start + length, payload


def _valid_frame_after(data: bytes, offset: int) -> bool:
    """True when a complete, CRC-valid frame exists anywhere past ``offset``.

    A genuine torn tail is the *end* of the log -- nothing valid can follow
    it, because appends are strictly sequential.  A bad frame *followed* by
    a valid one is therefore real corruption, never a crash artifact.
    """
    search = offset + 1
    marker = bytes([FRAME_MARKER])
    while True:
        candidate = data.find(marker, search)
        if candidate == -1:
            return False
        parsed = _frame_at(data, candidate)
        if parsed is not None and parsed[0] in (FRAME_CHUNK, FRAME_ADVANCE):
            return True
        search = candidate + 1


def _repair_segment_tail(path: Path) -> int:
    """Physically truncate a torn tail from a segment; returns bytes cut.

    Called when a :class:`WriteAheadLog` reopens a directory: recovery
    merely *tolerates* a torn final frame, but once newer segments exist
    the damage would sit mid-log and fail every later scan.  Damage that
    is followed by a valid frame is real corruption and raises
    :class:`WalError` rather than being repaired away.
    """
    data = path.read_bytes()
    if len(data) < len(SEGMENT_MAGIC):
        if data and not SEGMENT_MAGIC.startswith(data):
            raise WalError(f"{path.name}: not a WAL segment (bad magic)")
        if not data:
            return 0
        path.write_bytes(b"")
        return len(data)
    if not data.startswith(SEGMENT_MAGIC):
        raise WalError(f"{path.name}: not a WAL segment (bad magic)")
    offset = len(SEGMENT_MAGIC)
    while offset < len(data):
        parsed = _frame_at(data, offset)
        if parsed is None:
            if _valid_frame_after(data, offset):
                raise WalError(
                    f"{path.name}@{offset}: corrupt frame followed by valid "
                    "frames (not a torn tail)"
                )
            torn = len(data) - offset
            with open(path, "r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())
            return torn
        offset = parsed[1]
    return 0


def _scan_segment(
    index: int,
    path: Path,
    start_offset: int,
    final: bool,
    stats: WalScanStats,
) -> Iterator[WalRecord]:
    """Yield the frames of one segment, handling the torn-tail cases.

    A short or CRC-broken frame at the *end* of the final segment is the
    signature of a crash mid-append: it is counted in
    ``stats.truncated_bytes`` and scanning stops.  The same damage in a
    non-final segment -- or damage followed by a valid frame (which a
    sequential-append crash can never produce) -- is real corruption and
    raises :class:`WalError` instead of silently dropping acked frames.
    """
    data = path.read_bytes()
    stats.segments_scanned += 1
    stats.bytes_scanned += len(data)
    if len(data) < len(SEGMENT_MAGIC):
        # Crash between creating the segment and flushing its magic --
        # tolerated only as the very end of the log.
        if data and not SEGMENT_MAGIC.startswith(data):
            raise WalError(f"{path.name}: not a WAL segment (bad magic)")
        if not final and data:
            raise WalError(f"{path.name}: truncated segment header mid-log")
        stats.truncated_bytes += len(data)
        return
    if not data.startswith(SEGMENT_MAGIC):
        raise WalError(f"{path.name}: not a WAL segment (bad magic)")
    offset = max(start_offset, len(SEGMENT_MAGIC))
    if offset > len(data):
        raise WalError(
            f"{path.name}: resume offset {offset} is past the segment end "
            f"({len(data)} bytes)"
        )
    while offset < len(data):
        parsed = _frame_at(data, offset)
        if parsed is None:
            if not final:
                raise WalError(f"{path.name}@{offset}: corrupt frame mid-log")
            if _valid_frame_after(data, offset):
                raise WalError(
                    f"{path.name}@{offset}: corrupt frame followed by valid "
                    "frames (not a torn tail)"
                )
            stats.truncated_bytes += len(data) - offset
            return
        frame_type, offset, payload = parsed
        stats.frames += 1
        if frame_type == FRAME_CHUNK:
            stats.chunk_frames += 1
        elif frame_type == FRAME_ADVANCE:
            stats.advance_frames += 1
        yield WalRecord(WalPosition(index, offset), frame_type, payload)


def iter_wal(
    directory: str | Path,
    start: WalPosition | None = None,
    stats: WalScanStats | None = None,
) -> Iterator[WalRecord]:
    """Replay every frame in ``directory`` after ``start``, in log order.

    ``stats`` (if given) accumulates scan bookkeeping; it is complete once
    the iterator is exhausted.  Raises :class:`WalError` for corruption
    anywhere except a torn final tail, and for a missing directory.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise WalError(f"no such WAL directory: {directory}")
    stats = WalScanStats() if stats is None else stats
    segments = list_segments(directory)
    if start is not None:
        segments = [(index, path) for index, path in segments if index >= start.segment]
    for position, (index, path) in enumerate(segments):
        final = position == len(segments) - 1
        offset = (
            start.offset if start is not None and index == start.segment else 0
        )
        yield from _scan_segment(index, path, offset, final, stats)


def decode_chunk_record(
    record: WalRecord, codec: TokenCodec | None = None
) -> EncodedChunk:
    """Decode a chunk frame back into an :class:`EncodedChunk`.

    Wire errors surface as :class:`WalError` carrying the frame position,
    so a corrupt-but-CRC-valid payload (which only hand-editing can
    produce) is still reported against the log, not as a bare decode error.
    """
    try:
        return serialization.load_chunk_bytes(record.payload, codec)
    except serialization.SerializationError as error:
        raise WalError(
            f"undecodable chunk frame at segment {record.position.segment} "
            f"offset {record.position.offset}: {error}"
        ) from error


def decode_advance_record(record: WalRecord) -> int:
    """Decode a window-advance frame into its step count."""
    try:
        payload = json.loads(record.payload.decode())
        steps = int(payload["steps"])
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
        raise WalError(
            f"undecodable advance frame at segment {record.position.segment} "
            f"offset {record.position.offset}: {error}"
        ) from error
    if steps < 1:
        raise WalError(f"advance frame carries invalid steps {steps}")
    return steps


# --------------------------------------------------------------------------- #
# Checkpoints
# --------------------------------------------------------------------------- #


def _atomic_write(path: Path, data: bytes, durable: bool = True) -> None:
    """Write-then-rename so the file is always complete or absent."""
    scratch = path.with_suffix(path.suffix + ".tmp")
    with open(scratch, "wb") as handle:
        handle.write(data)
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
    os.replace(scratch, path)


def checkpoint_path(directory: str | Path, version: int) -> Path:
    return Path(directory) / f"{CHECKPOINT_PREFIX}{version:06d}{CHECKPOINT_SUFFIX}"


def list_checkpoints(directory: str | Path) -> list[tuple[int, Path]]:
    checkpoints = []
    for entry in Path(directory).iterdir():
        match = _CHECKPOINT_PATTERN.match(entry.name)
        if match:
            checkpoints.append((int(match.group(1)), entry))
    checkpoints.sort()
    return checkpoints


def write_checkpoint(
    directory: str | Path,
    version: int,
    position: WalPosition,
    shard_payloads: list[dict[str, Any]],
    window_buckets: list[tuple[int, dict[str, Any]]] | None = None,
    keep_previous: int = 1,
    durable: bool = True,
) -> Path:
    """Persist one checkpoint atomically; prunes older checkpoint files.

    ``shard_payloads`` are :func:`repro.serialization.dump` dictionaries,
    one per shard, whose state covers the log exactly up to ``position``.
    """
    payload: dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "checkpoint_version": int(version),
        "wal": position.as_dict(),
        "shards": shard_payloads,
    }
    if window_buckets is not None:
        payload["window_buckets"] = [
            [int(bucket_id), bucket_payload]
            for bucket_id, bucket_payload in window_buckets
        ]
    path = checkpoint_path(directory, version)
    _atomic_write(
        path,
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(),
        durable=durable,
    )
    for old_version, old_path in list_checkpoints(directory):
        if old_version < version - max(0, keep_previous):
            old_path.unlink(missing_ok=True)
    return path


def load_checkpoint(
    directory: str | Path,
) -> tuple[dict[str, Any], Path] | None:
    """The newest readable checkpoint (payload, path), or ``None``.

    A checkpoint that fails to parse raises :class:`WalError` -- a corrupt
    checkpoint must surface loudly rather than silently replaying the
    whole log into empty summaries.
    """
    checkpoints = list_checkpoints(directory)
    if not checkpoints:
        return None
    version, path = checkpoints[-1]
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WalError(f"corrupt checkpoint {path.name}: {error}") from error
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise WalError(f"{path.name} is not a {CHECKPOINT_FORMAT} file")
    if not isinstance(payload.get("shards"), list):
        raise WalError(f"{path.name} carries no shard payloads")
    return payload, path


# --------------------------------------------------------------------------- #
# Config manifest
# --------------------------------------------------------------------------- #


def write_manifest(directory: str | Path, config: dict[str, Any]) -> Path:
    """Record the service configuration so recovery needs no flags."""
    payload = {"format": MANIFEST_FORMAT, **config}
    path = Path(directory) / MANIFEST_NAME
    _atomic_write(
        path, json.dumps(payload, sort_keys=True, indent=2).encode()
    )
    return path


def read_manifest(directory: str | Path) -> dict[str, Any] | None:
    """The recorded service configuration, or ``None`` if absent."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WalError(f"corrupt WAL manifest {path.name}: {error}") from error
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise WalError(f"{path.name} is not a {MANIFEST_FORMAT} file")
    return payload
