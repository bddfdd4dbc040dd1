"""Serialisation of summaries for storage and network transfer.

The merging results of Section 6.2 only matter in practice if a site can ship
its summary to a coordinator.  This module defines a compact, versioned,
JSON-compatible wire format for every counter summary in
:mod:`repro.algorithms` plus the sketches, along with size accounting that
matches the paper's word-cost model (used by the distributed substrate to
report communication cost).

The format is intentionally simple::

    {
      "format": "repro-summary",
      "version": 2,
      "algorithm": "SpaceSaving",
      "num_counters": 200,
      "stream_length": 30000.0,
      "items_processed": 30000,
      "counts": {"<tag>:<payload>": 123.0, ...},
      "errors": {"<tag>:<payload>": 7.0, ...},   # only when tracked
      "extra": {...}                              # algorithm-specific state
    }

Round-tripping a summary through :func:`dump` / :func:`load` preserves every
estimate and every per-item error bound, so a deserialised summary answers
queries (and merges) exactly like the original.  It does *not* preserve
internal acceleration structures byte-for-byte (e.g. the Stream-Summary
bucket list is rebuilt), which is irrelevant to correctness.

An :class:`~repro.algorithms.array_summary.ArraySummary` stores its raw
counters ``c_i`` under ``counts`` and its total decrement under
``"extra": {"decrement": d}``; it answers ``c_i + d``, and loading
recomputes the key fingerprints.

A :class:`~repro.core.merging.DisjointUnion` -- the union of key-disjoint
shard summaries that the service answers from -- is written as
``"algorithm": "DisjointUnion"`` with a ``"parts"`` list of the payloads
above (no ``counts``/``errors`` of its own); it costs the sum of its parts'
words and loads back as the same union.

Items are carried as type-tagged key strings (wire format v2): ``s:`` str,
``i:`` int, ``f:`` float (including ``inf``), ``b:`` bool, ``n:`` None,
``y:`` base64 bytes and ``t:`` tuples (a JSON array of encoded elements,
nesting arbitrarily) -- see :func:`encode_item_key`.  That covers
structured stream keys such as network-flow 5-tuples end-to-end.  Anything
else -- and NaN, which can never be queried back -- is rejected with a
clear error rather than silently repr'd.  Version 1 payloads (which only
ever used ``s:``/``i:``/``f:`` keys) still load.

Encoded columnar chunks -- the records of client ingest frames, the
write-ahead log and the process-backend pipes -- use a packed binary
layout instead (:func:`dump_chunk_bytes`), all integers little-endian::

    magic     4 bytes  b"\\x89RCK" (starts neither JSON "{" nor gzip 1f 8b)
    version   u8       PACKED_CHUNK_VERSION
    flags     u8       bit 0: weights present; other bits must be 0
    tokens    u32      chunk length
    entries   u32      distinct tokens in the chunk (its local vocabulary)
    key_bytes u32      size of the key blob
    lengths   entries x u32    byte length of each vocabulary key
    keys      key_bytes        UTF-8 type-tagged keys, back to back
    ids       tokens x u16|u32 local ids; u16 while entries <= 65536
    weights   tokens x f64     only when flag bit 0 is set

``compress=True`` gzips the whole record.  :func:`load_chunk_bytes`
still reads the JSON chunk form (:func:`load_chunk`) that records from
earlier builds hold.
"""

from __future__ import annotations

import base64
import gzip
import json
import math
import struct
import weakref
import zlib
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.algorithms.array_summary import ArraySummary
from repro.algorithms.base import FrequencyEstimator, Item
from repro.algorithms.frequent import Frequent
from repro.engine.codec import (
    EncodedChunk,
    TokenAdmissionError,
    TokenCodec,
    validate_token,
)
from repro.algorithms.frequent_real import FrequentR
from repro.algorithms.lossy_counting import LossyCounting
from repro.algorithms.space_saving import SpaceSaving, SpaceSavingHeap
from repro.algorithms.space_saving_real import SpaceSavingR
from repro.core.merging import DisjointUnion
from repro.streams.exact import ExactCounter

FORMAT_NAME = "repro-summary"
#: Version written by this library.  Version 1 (whose keys were limited to
#: ``s:``/``i:``/``f:``) is a strict subset of version 2, so the readers
#: accept both -- see :data:`SUPPORTED_VERSIONS`.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

#: Registry of serialisable summary classes, keyed by their wire name.
_REGISTRY: Dict[str, Type[FrequencyEstimator]] = {
    "ArraySummary": ArraySummary,
    "Frequent": Frequent,
    "FrequentR": FrequentR,
    "LossyCounting": LossyCounting,
    "SpaceSaving": SpaceSaving,
    "SpaceSavingHeap": SpaceSavingHeap,
    "SpaceSavingR": SpaceSavingR,
    "ExactCounter": ExactCounter,
}


class SerializationError(ValueError):
    """Raised when a summary cannot be serialised or a payload is invalid."""


def check_item(item: Item) -> Any:
    """Validate that an item survives a wire round trip unchanged.

    Raises :class:`SerializationError` for items wire format v2 cannot
    carry (anything but str, bytes, bool, int, non-NaN float, None and
    tuples of those).  Every ingest boundary -- the service layer, the
    sharded summarizer and the batched pipeline -- runs this check (via
    the shared :func:`repro.engine.codec.validate_token` admission layer)
    so an unserialisable token is rejected synchronously instead of
    poisoning later snapshots.
    """
    try:
        return validate_token(item)
    except TokenAdmissionError as error:
        raise SerializationError(str(error)) from error


def json_lossless(item: Item) -> bool:
    """True when raw JSON carries ``item``'s type and value losslessly.

    The single definition of the raw-vs-tagged split in the NDJSON
    protocol: the client tags exactly the tokens for which this is false,
    and the server tags the same set in its responses.  Raw JSON preserves
    str, bool, int, None and finite floats; tuples become arrays, bytes
    are unrepresentable, and non-finite floats are non-standard JSON.
    """
    if item is None or isinstance(item, (str, bool, int)):
        return True
    return isinstance(item, float) and math.isfinite(item)


def encode_item_key(item: Item) -> str:
    """Type-tagged string form of an item (the v2 wire key encoding).

    Tags: ``s:`` str, ``i:`` int, ``f:`` float, ``b:`` bool (``1``/``0``),
    ``n:`` None, ``y:`` base64 bytes, ``t:`` tuple (JSON array of encoded
    elements, nested tuples encode recursively).  Floats use ``repr``, so
    the round trip is bit-exact (including ``inf``/``-inf``).

    Examples
    --------
    >>> encode_item_key(("10.0.0.1", 443))
    't:["s:10.0.0.1","i:443"]'
    >>> decode_item_key(encode_item_key(("a", (b"x", None, True))))
    ('a', (b'x', None, True))
    """
    check_item(item)
    return _encode_key(item)


def _encode_key(item: Item) -> str:
    """Recursive key encoder; ``item`` must already have passed admission."""
    if isinstance(item, bool):  # before int: bool is an int subclass
        return "b:1" if item else "b:0"
    if isinstance(item, str):
        return "s:" + item
    if isinstance(item, int):
        return f"i:{item}"
    if isinstance(item, float):
        return f"f:{item!r}"
    if item is None:
        return "n:"
    if isinstance(item, bytes):
        return "y:" + base64.b64encode(item).decode("ascii")
    if isinstance(item, np.generic):
        return _encode_key(item.item())
    # validate_token admitted it, so it is a tuple.
    return "t:" + json.dumps(
        [_encode_key(element) for element in item], separators=(",", ":")
    )


def _encode_counts(counts: Dict[Item, float]) -> Dict[str, float]:
    """JSON object keys are strings; encode items with a type tag."""
    return {encode_item_key(item): float(value) for item, value in counts.items()}


def decode_item_key(key: str) -> Item:
    """Inverse of :func:`encode_item_key` (accepts v1 and v2 keys)."""
    prefix, separator, payload = key.partition(":")
    if not separator:
        raise SerializationError(f"unrecognised item key {key!r}")
    if prefix == "s":
        return payload
    try:
        if prefix == "i":
            return int(payload)
        if prefix == "f":
            value = float(payload)
            if value != value:
                # Pre-v2 check_item admitted NaN, so a genuine v1 payload
                # can contain an "f:nan" key.  Loading it would re-open the
                # accept-then-crash gap (the summary could never be
                # re-dumped, and the token could never be queried), so the
                # load boundary rejects it with a clear error instead.
                raise SerializationError(
                    f"item key {key!r} decodes to NaN, which can never be "
                    "queried or re-serialised; this payload predates the "
                    "v2 NaN admission rule"
                )
            return value
        if prefix == "b":
            if payload in ("1", "0"):
                return payload == "1"
            raise SerializationError(f"invalid bool item key {key!r}")
        if prefix == "n":
            return None
        if prefix == "y":
            return base64.b64decode(payload.encode("ascii"), validate=True)
        if prefix == "t":
            elements = json.loads(payload)
            if not isinstance(elements, list) or not all(
                isinstance(element, str) for element in elements
            ):
                raise SerializationError(f"invalid tuple item key {key!r}")
            return tuple(decode_item_key(element) for element in elements)
    except SerializationError:
        raise
    except (ValueError, UnicodeEncodeError) as error:
        raise SerializationError(f"invalid item key {key!r}: {error}") from error
    raise SerializationError(f"unrecognised item key {key!r}")


def _decode_counts(encoded: Dict[str, float]) -> Dict[Item, float]:
    return {decode_item_key(key): float(value) for key, value in encoded.items()}


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #


def dump(summary: FrequencyEstimator) -> Dict[str, Any]:
    """Serialise a summary to a JSON-compatible dictionary.

    Examples
    --------
    >>> from repro.algorithms import SpaceSaving
    >>> summary = SpaceSaving(num_counters=4)
    >>> summary.update_many(["a", "a", "b"])
    >>> payload = dump(summary)
    >>> payload["algorithm"], payload["num_counters"]
    ('SpaceSaving', 4)
    """
    name = type(summary).__name__
    if isinstance(summary, DisjointUnion):
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "algorithm": name,
            "num_counters": summary.num_counters,
            "stream_length": summary.stream_length,
            "items_processed": summary.items_processed,
            "parts": [dump(part) for part in summary.parts],
        }
    if name not in _REGISTRY:
        raise SerializationError(f"no serialiser registered for {name}")
    payload: Dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "algorithm": name,
        "num_counters": summary.num_counters,
        "stream_length": summary.stream_length,
        "items_processed": summary.items_processed,
        "counts": _encode_counts(summary.counters()),
        "errors": _encode_counts(summary.per_item_errors()),
        "extra": {},
    }
    if isinstance(summary, ArraySummary):
        payload["counts"] = _encode_counts(summary.guaranteed_counters())
        payload["extra"] = {"decrement": summary.decrement}
    elif isinstance(summary, LossyCounting):
        payload["extra"] = {
            "epsilon": summary.epsilon,
            "current_bucket": summary._current_bucket,
            "seen": summary._seen,
            "max_entries": summary.max_entries,
            "deltas": _encode_counts(
                {item: delta for item, (_, delta) in summary._entries.items()}
            ),
        }
    return payload


def dumps(summary: FrequencyEstimator) -> str:
    """Serialise a summary to a JSON string."""
    return json.dumps(dump(summary), sort_keys=True)


#: First two bytes of every gzip member (RFC 1952); used to auto-detect
#: compressed payloads on the read path.
GZIP_MAGIC = b"\x1f\x8b"


def dump_bytes(summary: FrequencyEstimator, compress: bool = False) -> bytes:
    """Serialise a summary to bytes, optionally gzip-compressed.

    With ``compress=True`` the JSON text is gzipped with a zeroed mtime so
    the output is deterministic: the same summary always produces the same
    bytes, which keeps snapshot files diffable and cacheable.
    :func:`load_bytes` auto-detects either form.
    """
    return dump_bytes_with_cost(summary, compress=compress)[0]


def _gunzip_if_compressed(
    data: Union[bytes, bytearray, memoryview]
) -> Union[bytes, bytearray, memoryview]:
    """``data`` itself, or its gzip decompression when it is a gzip member.

    Takes any bytes-like object: the binary ingest path hands in a
    :class:`memoryview` of the received frame, so only slicing is used.
    """
    if data[:2] != GZIP_MAGIC:
        return data
    # gzip.decompress raises BadGzipFile (an OSError) for bad headers,
    # EOFError for truncation and zlib.error for corrupt deflate data.
    try:
        return gzip.decompress(data)
    except (OSError, EOFError, zlib.error) as error:
        raise SerializationError(f"invalid gzip payload: {error}") from error


def _json_from_bytes(data: Union[bytes, bytearray, memoryview]) -> Dict[str, Any]:
    """Parse UTF-8 JSON text, as :class:`SerializationError` on failure."""
    try:
        text = str(data, "utf-8")
    except UnicodeDecodeError as error:
        raise SerializationError(f"payload is not UTF-8: {error}") from error
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error


def load_bytes(data: bytes) -> FrequencyEstimator:
    """Reconstruct a summary from :func:`dump_bytes` output (gzip or plain)."""
    return load(_json_from_bytes(_gunzip_if_compressed(data)))


@dataclass(frozen=True)
class WireCost:
    """Communication cost of shipping one summary, in both cost models.

    ``words`` is the paper's word-model cost (what the analysis of Section
    6.2 counts); ``json_bytes`` and ``wire_bytes`` are the concrete encoded
    sizes before and after optional compression (what a deployment's
    network bill counts).
    """

    words: int
    json_bytes: int
    wire_bytes: int
    compressed: bool

    @property
    def compression_ratio(self) -> float:
        """Uncompressed-to-wire size ratio (1.0 when not compressed)."""
        return self.json_bytes / self.wire_bytes if self.wire_bytes else 1.0


def dump_bytes_with_cost(
    summary: FrequencyEstimator, compress: bool = False
) -> "tuple[bytes, WireCost]":
    """Encode a summary once, returning both the bytes and their cost.

    The single-pass path for callers that persist a payload *and* account
    for its size (the snapshot layer does both for every version).
    """
    payload = dump(summary)
    raw = json.dumps(payload, sort_keys=True).encode("utf-8")
    wire = gzip.compress(raw, mtime=0) if compress else raw
    cost = WireCost(
        words=serialized_size_words(payload),
        json_bytes=len(raw),
        wire_bytes=len(wire),
        compressed=compress,
    )
    return wire, cost


def wire_cost(summary: FrequencyEstimator, compress: bool = False) -> WireCost:
    """Word-model and byte-level cost of shipping ``summary``.

    Examples
    --------
    >>> from repro.algorithms import SpaceSaving
    >>> summary = SpaceSaving(num_counters=4)
    >>> summary.update_many(["a", "a", "b"])
    >>> cost = wire_cost(summary)
    >>> cost.words
    6
    """
    return dump_bytes_with_cost(summary, compress=compress)[1]


def serialized_size_words(payload: Dict[str, Any]) -> int:
    """Communication cost of a payload in the paper's word model.

    One word for the item identifier and one for the counter value, plus one
    per recorded per-item error -- the quantity Section 6.2's motivation
    (shipping summaries to a coordinator) cares about.  A union costs the
    sum of its parts.
    """
    if "parts" in payload:
        return sum(serialized_size_words(part) for part in payload["parts"])
    return 2 * len(payload.get("counts", {})) + len(payload.get("errors", {}))


def _validate(payload: Dict[str, Any]) -> None:
    if not isinstance(payload, dict):
        raise SerializationError("payload must be a dictionary")
    if payload.get("format") != FORMAT_NAME:
        raise SerializationError(
            f"not a {FORMAT_NAME} payload: format={payload.get('format')!r}"
        )
    if payload.get("version") not in SUPPORTED_VERSIONS:
        raise SerializationError(
            f"unsupported version {payload.get('version')!r} "
            f"(this library reads versions {SUPPORTED_VERSIONS})"
        )
    algorithm = payload.get("algorithm")
    if algorithm not in _REGISTRY and algorithm != DisjointUnion.__name__:
        raise SerializationError(f"unknown algorithm {algorithm!r}")


def _load_union(payload: Dict[str, Any]) -> DisjointUnion:
    entries = payload.get("parts")
    if not isinstance(entries, list):
        raise SerializationError("a DisjointUnion payload needs a list of parts")
    parts = [load(entry) for entry in entries]
    try:
        return DisjointUnion(parts)
    except ValueError as error:
        raise SerializationError(f"invalid DisjointUnion payload: {error}") from error


def load(payload: Dict[str, Any]) -> FrequencyEstimator:
    """Reconstruct a summary from a dictionary produced by :func:`dump`.

    The reconstructed summary reports the same estimates, per-item errors,
    stream length and counter budget as the original, and can keep processing
    further updates (a :class:`DisjointUnion` stays read-only) or participate
    in merges.

    Examples
    --------
    >>> from repro.algorithms import Frequent
    >>> original = Frequent(num_counters=8)
    >>> original.update_many(["x", "y", "x"])
    >>> clone = load(dump(original))
    >>> clone.estimate("x") == original.estimate("x")
    True
    """
    _validate(payload)
    if payload["algorithm"] == DisjointUnion.__name__:
        return _load_union(payload)
    cls = _REGISTRY[payload["algorithm"]]
    counts = _decode_counts(payload.get("counts", {}))
    errors = _decode_counts(payload.get("errors", {}))
    extra = payload.get("extra", {}) or {}

    if cls is ArraySummary:
        try:
            summary = ArraySummary.from_counters(
                int(payload["num_counters"]), counts, float(extra.get("decrement", 0.0))
            )
        except ValueError as error:
            raise SerializationError(f"invalid ArraySummary payload: {error}") from error
    elif cls is LossyCounting:
        summary = LossyCounting(epsilon=float(extra.get("epsilon", 0.01)))
        deltas = _decode_counts(extra.get("deltas", {}))
        summary._entries = {
            item: (value, float(deltas.get(item, 0.0))) for item, value in counts.items()
        }
        summary._current_bucket = int(extra.get("current_bucket", 1))
        summary._seen = int(extra.get("seen", payload.get("items_processed", 0)))
        summary.max_entries = int(extra.get("max_entries", len(counts)))
    elif cls is ExactCounter:
        summary = ExactCounter()
        for item, value in counts.items():
            summary._counts[item] = value
    elif cls in (Frequent, FrequentR):
        summary = cls(num_counters=int(payload["num_counters"]))
        summary._counts = dict(counts)
        summary._offset = 0.0
    elif cls in (SpaceSavingHeap, SpaceSavingR):
        summary = cls(num_counters=int(payload["num_counters"]))
        summary._counts = dict(counts)
        summary._errors = {item: errors.get(item, 0.0) for item in counts}
        for item, value in counts.items():
            summary._push(item, value)
    else:  # SpaceSaving (Stream-Summary): rebuild the bucket list.
        summary = SpaceSaving(num_counters=int(payload["num_counters"]))
        for item, value in sorted(counts.items(), key=lambda kv: kv[1]):
            summary._place_item(item, value, summary._anchor_for(value))
        summary._errors = {item: errors.get(item, 0.0) for item in counts}

    summary._stream_length = float(payload.get("stream_length", sum(counts.values())))
    summary._items_processed = int(payload.get("items_processed", 0))
    return summary


def loads(text: str) -> FrequencyEstimator:
    """Reconstruct a summary from a JSON string produced by :func:`dumps`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    return load(payload)


# --------------------------------------------------------------------------- #
# Encoded columnar chunks on the wire
# --------------------------------------------------------------------------- #

CHUNK_FORMAT_NAME = "repro-chunk"
#: Version of the JSON chunk form (:func:`dump_chunk`): v2 adds the
#: type-tagged vocabulary entries (bool/None/bytes/tuple); v1 still loads.
CHUNK_FORMAT_VERSION = 2
SUPPORTED_CHUNK_VERSIONS = (1, 2)

#: First four bytes of a packed chunk record.  ``0x89`` is a UTF-8
#: continuation byte, so neither JSON text (``{``) nor a gzip member
#: (``1f 8b``) can start with it: :func:`load_chunk_bytes` dispatches on it.
PACKED_CHUNK_MAGIC = b"\x89RCK"
#: Layout version of the packed record (independent of the JSON versions).
PACKED_CHUNK_VERSION = 1
#: Flag bit 0: an ``f64`` weight column follows the ids.
PACKED_FLAG_WEIGHTS = 0x01
#: magic, version (u8), flags (u8), then token count, entry count and
#: key-bytes size (u32 LE each).
_PACKED_HEADER = struct.Struct("<4sBBIII")
#: Local ids are ``u16`` when the entry count allows, else ``u32``: the id
#: column is most of a skewed chunk's bytes.
_U16_MAX_ENTRIES = 1 << 16


def _id_dtype(entries: int) -> str:
    return "<u2" if entries <= _U16_MAX_ENTRIES else "<u4"


#: Per-codec memo of ``token id -> UTF-8 wire key``, stored as two dense
#: columns aligned with the codec's id space: the key ``bytes`` (object)
#: and their lengths (``-1`` until encoded).  A long-lived codec (the
#: service ingest codec, a client) dumps many chunks drawn from one
#: vocabulary, and an entry's key never changes once interned -- so the
#: recursive encode/validate cost is paid once per vocabulary entry, and a
#: chunk's vocabulary is one gather plus one ``b"".join``.  Weak keys:
#: dropping the codec drops its memo.
_WIRE_KEY_MEMO: "weakref.WeakKeyDictionary[TokenCodec, Tuple[np.ndarray, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


#: The load-side mirror of :data:`_WIRE_KEY_MEMO`: per-codec ``UTF-8 wire
#: key -> token id``.  A long-lived codec (the service ingest codec
#: decoding binary frames, a WAL recovery replay) loads many chunks drawn
#: from one vocabulary, and a key's interned id never changes -- so the
#: recursive decode/intern cost is paid once per distinct key, and a
#: steady-state chunk vocabulary resolves with one dict hit per entry.
#: Both record forms resolve through it, so a codec holds one memo.
#: Bounded by codec rotation (rotating drops the codec, and its memo).
_WIRE_ID_MEMO: "weakref.WeakKeyDictionary[TokenCodec, Dict[bytes, int]]" = (
    weakref.WeakKeyDictionary()
)


def _key_bytes(item: Item) -> bytes:
    """UTF-8 form of an admitted item's wire key.

    ``surrogatepass``: admission takes any ``str``, lone surrogates
    included (JSON text carried them as ``\\u`` escapes), so the packed
    form must carry them too.
    """
    return encode_item_key(item).encode("utf-8", "surrogatepass")


def _ids_for_wire_keys(codec: TokenCodec, keys: List[bytes]) -> np.ndarray:
    """Codec ids for a chunk's UTF-8 wire-key vocabulary, memoised per codec.

    Raises ``ValueError`` (``UnicodeDecodeError`` or
    :class:`SerializationError`) for a key that is not UTF-8 or not a
    valid tagged key; memo hits skip both checks, since only keys that
    passed them are ever stored.
    """
    memo = _WIRE_ID_MEMO.get(codec)
    if memo is None:
        memo = {}
        _WIRE_ID_MEMO[codec] = memo
    ids = np.fromiter(map(memo.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))
    for index in np.flatnonzero(ids < 0).tolist():
        key = keys[index]
        ids[index] = memo[key] = codec.intern(
            decode_item_key(key.decode("utf-8", "surrogatepass"))
        )
    return ids


def _wire_keys_for(
    codec: TokenCodec, values: np.ndarray
) -> Tuple[List[bytes], np.ndarray]:
    """UTF-8 wire keys and their lengths for the distinct ids in ``values``."""
    columns = _WIRE_KEY_MEMO.get(codec)
    size = len(codec)
    if columns is None or columns[0].size < size:
        keys = np.empty(max(1024, 2 * size), dtype=object)
        lengths = np.full(keys.size, -1, dtype=np.int64)
        if columns is not None:
            keys[: columns[0].size] = columns[0]
            lengths[: columns[1].size] = columns[1]
        columns = (keys, lengths)
        _WIRE_KEY_MEMO[codec] = columns
    keys, lengths = columns
    gathered = lengths[values]
    missing = gathered < 0
    if missing.any():
        for token_id in values[missing].tolist():
            key = _key_bytes(codec.item_for(token_id))
            keys[token_id] = key
            lengths[token_id] = len(key)
        gathered = lengths[values]
    return keys[values].tolist(), gathered


def _local_vocabulary(chunk: EncodedChunk) -> Tuple[np.ndarray, np.ndarray]:
    """A chunk's distinct codec ids (sorted) and its ids remapped onto them.

    The compact local id space both chunk encoders write.  This sits on
    the durable ingest hot path, so it mirrors the bincount trick of
    :meth:`repro.engine.codec.EncodedChunk.aggregate` instead of a
    sort-based ``np.unique`` whenever the vocabulary is not vastly larger
    than the chunk.
    """
    ids = np.asarray(chunk.ids, dtype=np.int64)
    vocabulary_size = len(chunk.codec)
    if ids.size and 0 <= int(ids.min()) and vocabulary_size <= 4 * ids.size + 1024:
        # Ids are dense in [0, vocabulary_size): one counting pass beats
        # the sort inside np.unique, and searchsorted against the short
        # distinct column rebuilds the same compact local ids.
        present = np.bincount(ids, minlength=vocabulary_size)
        values = np.flatnonzero(present)
        inverse = np.searchsorted(values, ids)
    else:
        values, inverse = np.unique(ids, return_inverse=True)
    return values, inverse.reshape(-1)


def dump_chunk(chunk: EncodedChunk) -> Dict[str, Any]:
    """Serialise an encoded columnar chunk to the JSON chunk form.

    The chunk's codec ids are remapped to a compact local id space covering
    only the vocabulary entries this chunk actually references, so shipping
    one chunk never drags a long-lived codec's whole vocabulary across the
    wire.  Items are carried with the same type-prefix encoding the summary
    format uses (memoised per codec vocabulary entry), so any two parties
    reconstruct identical tokens.  Chunk records use the packed form of
    :func:`dump_chunk_bytes`; this dictionary form is what records from
    earlier builds hold.

    Examples
    --------
    >>> from repro.engine.codec import TokenCodec
    >>> codec = TokenCodec()
    >>> payload = dump_chunk(codec.encode_chunk(["a", "b", "a"]))
    >>> payload["ids"], payload["vocabulary"]
    ([0, 1, 0], ['s:a', 's:b'])
    """
    values, local_ids = _local_vocabulary(chunk)
    keys, _ = _wire_keys_for(chunk.codec, values)
    return {
        "format": CHUNK_FORMAT_NAME,
        "version": CHUNK_FORMAT_VERSION,
        "ids": local_ids.tolist(),
        "vocabulary": [key.decode("utf-8", "surrogatepass") for key in keys],
        "weights": None if chunk.weights is None else chunk.weights.tolist(),
    }


def load_chunk(
    payload: Dict[str, Any], codec: Optional[TokenCodec] = None
) -> EncodedChunk:
    """Reconstruct an :class:`EncodedChunk` from :func:`dump_chunk` output.

    The carried vocabulary is interned into ``codec`` (a fresh codec when
    ``None``), so a coordinator can funnel chunks from many sites into one
    shared vocabulary; wire-local ids are remapped onto the codec's ids.
    """
    if not isinstance(payload, dict):
        raise SerializationError("payload must be a dictionary")
    if payload.get("format") != CHUNK_FORMAT_NAME:
        raise SerializationError(
            f"not a {CHUNK_FORMAT_NAME} payload: format={payload.get('format')!r}"
        )
    if payload.get("version") not in SUPPORTED_CHUNK_VERSIONS:
        raise SerializationError(
            f"unsupported chunk version {payload.get('version')!r} "
            f"(this library reads versions {SUPPORTED_CHUNK_VERSIONS})"
        )
    codec = TokenCodec() if codec is None else codec
    vocabulary = payload.get("vocabulary", [])
    # Malformed entries surface as the module's wire-boundary error type, not
    # as raw conversion errors from NumPy or the key decoder.
    try:
        local_to_codec = _ids_for_wire_keys(
            codec, [key.encode("utf-8", "surrogatepass") for key in vocabulary]
        )
    except (AttributeError, TypeError, ValueError) as error:
        raise SerializationError(f"invalid chunk vocabulary: {error}") from error
    try:
        wire_ids = np.asarray(payload.get("ids", []))
    except (TypeError, ValueError) as error:
        raise SerializationError(f"invalid chunk ids: {error}") from error
    if wire_ids.ndim != 1:
        raise SerializationError(
            f"chunk ids must be a flat list, got {wire_ids.ndim} dimensions"
        )
    if wire_ids.size and wire_ids.dtype.kind not in ("i", "u"):
        raise SerializationError(
            f"chunk ids must be integers, got dtype {wire_ids.dtype}"
        )
    wire_ids = wire_ids.astype(np.int64, copy=False)
    if wire_ids.size and (wire_ids.min() < 0 or wire_ids.max() >= len(vocabulary)):
        raise SerializationError("chunk ids reference entries outside the vocabulary")
    weights = payload.get("weights")
    try:
        weights = None if weights is None else np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise SerializationError(f"invalid chunk weights: {error}") from error
    if weights is not None and weights.ndim != 1:
        raise SerializationError(
            f"chunk weights must be a flat list, got {weights.ndim} dimensions"
        )
    try:
        return EncodedChunk(
            ids=local_to_codec[wire_ids] if wire_ids.size else wire_ids,
            codec=codec,
            weights=weights,
        )
    except (TypeError, ValueError) as error:  # e.g. NaN weights, length mismatch
        raise SerializationError(f"invalid chunk payload: {error}") from error


def dump_chunk_bytes(chunk: EncodedChunk, compress: bool = False) -> bytes:
    """Serialise a chunk to one packed record (optionally gzip, deterministic mtime).

    The record is the little-endian layout in the module docstring: a
    header, the local vocabulary as a length column plus the UTF-8 keys
    back to back, the local ids and, when the chunk is weighted, its
    ``f64`` weights.  It sits on the ingest hot path (every client
    frame and WAL record is one), so no part of it is text to escape.
    """
    values, local_ids = _local_vocabulary(chunk)
    keys, lengths = _wire_keys_for(chunk.codec, values)
    blob = b"".join(keys)
    weights = chunk.weights
    raw = b"".join(
        (
            _PACKED_HEADER.pack(
                PACKED_CHUNK_MAGIC,
                PACKED_CHUNK_VERSION,
                0 if weights is None else PACKED_FLAG_WEIGHTS,
                local_ids.size,
                values.size,
                len(blob),
            ),
            lengths.astype("<u4").tobytes(),
            blob,
            local_ids.astype(_id_dtype(values.size)).tobytes(),
            b"" if weights is None else weights.astype("<f8", copy=False).tobytes(),
        )
    )
    return gzip.compress(raw, mtime=0) if compress else raw


def _load_packed_chunk(
    data: Union[bytes, memoryview], codec: Optional[TokenCodec]
) -> EncodedChunk:
    """Decode one packed record; every malformed input is a SerializationError."""
    size = len(data)
    if size < _PACKED_HEADER.size:
        raise SerializationError(
            f"packed chunk of {size} bytes is shorter than its "
            f"{_PACKED_HEADER.size}-byte header"
        )
    _, version, flags, tokens, entries, key_size = _PACKED_HEADER.unpack_from(data)
    if version != PACKED_CHUNK_VERSION:
        raise SerializationError(
            f"unsupported packed chunk version {version} "
            f"(this library reads version {PACKED_CHUNK_VERSION})"
        )
    if flags & ~PACKED_FLAG_WEIGHTS:
        raise SerializationError(f"unknown packed chunk flags 0x{flags:02X}")
    weighted = bool(flags & PACKED_FLAG_WEIGHTS)
    id_dtype = np.dtype(_id_dtype(entries))
    ids_at = _PACKED_HEADER.size + 4 * entries + key_size
    weights_at = ids_at + id_dtype.itemsize * tokens
    expected = weights_at + (8 * tokens if weighted else 0)
    if size != expected:
        raise SerializationError(
            f"packed chunk is {size} bytes but its header declares {expected}"
        )
    lengths = np.frombuffer(data, dtype="<u4", count=entries, offset=_PACKED_HEADER.size)
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    if (ends[-1] if ends else 0) != key_size:
        raise SerializationError(
            "packed chunk key lengths do not add up to its key-bytes size"
        )
    ids = np.frombuffer(data, dtype=id_dtype, count=tokens, offset=ids_at)
    if tokens and int(ids.max()) >= entries:
        raise SerializationError("chunk ids reference entries outside the vocabulary")
    weights = (
        np.frombuffer(data, dtype="<f8", count=tokens, offset=weights_at)
        if weighted
        else None
    )
    blob = bytes(data[ids_at - key_size : ids_at])
    codec = TokenCodec() if codec is None else codec
    try:
        local_to_codec = _ids_for_wire_keys(
            codec, [blob[start:end] for start, end in zip([0, *ends], ends)]
        )
    except ValueError as error:  # not UTF-8, or not a valid tagged key
        raise SerializationError(f"invalid chunk vocabulary: {error}") from error
    try:
        return EncodedChunk(ids=local_to_codec[ids], codec=codec, weights=weights)
    except (TypeError, ValueError) as error:  # e.g. NaN or negative weights
        raise SerializationError(f"invalid chunk payload: {error}") from error


def load_chunk_bytes(
    data: Union[bytes, bytearray, memoryview],
    codec: Optional[TokenCodec] = None,
) -> EncodedChunk:
    """Reconstruct a chunk from :func:`dump_chunk_bytes` output (gzip or plain).

    A payload that is neither gzip nor packed is read as the JSON chunk
    form (:func:`load_chunk`), which WAL segments and clients from earlier
    builds hold.  Accepts any bytes-like object; the binary ingest path
    passes a :class:`memoryview` of the received frame so no intermediate
    copy of the payload is materialised.
    """
    data = _gunzip_if_compressed(data)
    if data[:4] == PACKED_CHUNK_MAGIC:
        return _load_packed_chunk(data, codec)
    return load_chunk(_json_from_bytes(data), codec)
