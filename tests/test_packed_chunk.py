"""The packed binary chunk record of ``serialization.dump_chunk_bytes``.

Every client frame, WAL record and process-backend pipe message carries
one.  The contract under test:

* the layout is the documented little-endian one (header, key-length
  column, UTF-8 keys, local ids, optional weights), and ids narrow to
  ``u16`` while the entry count allows;
* round trips are exact for plain and gzip payloads, structured tokens
  and weights included;
* every malformed input -- each truncation, header counts off by one, an
  id past the vocabulary, a key that is not UTF-8 or not a tagged key,
  NaN or negative weights, a trailing byte, an unknown version or flag --
  raises ``SerializationError`` and nothing else;
* JSON chunk records from earlier builds still load, and both forms
  resolve keys through the one ``bytes`` memo of the codec.
"""

import gzip
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import serialization
from repro.engine.codec import TokenCodec
from repro.serialization import (
    PACKED_CHUNK_MAGIC,
    PACKED_CHUNK_VERSION,
    PACKED_FLAG_WEIGHTS,
    SerializationError,
)

HEADER = struct.Struct("<4sBBIII")

ITEMS = ["alpha", "beta", "alpha", ("10.0.0.1", 443), 7, b"\x00raw", None]
WEIGHTS = [1.0, 2.0, 1.0, 0.5, 3.0, 0.0, 4.0]


def _packed(items=ITEMS, weights=WEIGHTS, compress=False) -> bytes:
    return serialization.dump_chunk_bytes(
        TokenCodec().encode_chunk(items, weights), compress=compress
    )


def _assemble(keys, ids, weights=None, id_format="H", version=None, flags=None):
    """Build a packed record by hand, so tests can break one field at a time."""
    blob = b"".join(keys)
    if flags is None:
        flags = 0 if weights is None else PACKED_FLAG_WEIGHTS
    parts = [
        HEADER.pack(
            PACKED_CHUNK_MAGIC,
            PACKED_CHUNK_VERSION if version is None else version,
            flags,
            len(ids),
            len(keys),
            len(blob),
        ),
        struct.pack(f"<{len(keys)}I", *(len(key) for key in keys)),
        blob,
        struct.pack(f"<{len(ids)}{id_format}", *ids),
    ]
    if weights is not None:
        parts.append(struct.pack(f"<{len(weights)}d", *weights))
    return b"".join(parts)


def _rejects(data: bytes) -> None:
    with pytest.raises(SerializationError):
        serialization.load_chunk_bytes(data)


class TestLayout:
    def test_header_and_columns(self):
        data = _packed()
        magic, version, flags, tokens, entries, key_size = HEADER.unpack_from(data)
        assert magic == PACKED_CHUNK_MAGIC and version == PACKED_CHUNK_VERSION
        assert flags == PACKED_FLAG_WEIGHTS
        assert (tokens, entries) == (7, 6)
        lengths = struct.unpack_from("<6I", data, HEADER.size)
        assert sum(lengths) == key_size
        keys_at = HEADER.size + 4 * entries
        blob = data[keys_at : keys_at + key_size]
        assert blob.startswith(b"s:alphas:beta")
        ids = struct.unpack_from("<7H", data, keys_at + key_size)
        assert ids == (0, 1, 0, 2, 3, 4, 5)
        assert struct.unpack_from("<7d", data, keys_at + key_size + 14) == tuple(WEIGHTS)
        assert len(data) == keys_at + key_size + 14 + 56

    def test_hand_assembled_record_matches_the_encoder(self):
        keys = [b"s:a", b"i:5"]
        assert _assemble(keys, [0, 1, 0]) == _packed(["a", 5, "a"], None)

    def test_magic_starts_neither_json_nor_gzip(self):
        assert PACKED_CHUNK_MAGIC[:1] != b"{"
        assert PACKED_CHUNK_MAGIC[:2] != serialization.GZIP_MAGIC

    def test_ids_widen_to_u32_past_65536_entries(self):
        items = list(range(70_000))
        data = _packed(items, None)
        _, _, _, tokens, entries, key_size = HEADER.unpack_from(data)
        assert tokens == entries == 70_000
        assert len(data) == HEADER.size + 4 * entries + key_size + 4 * tokens
        assert serialization.load_chunk_bytes(data).items() == items


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(
            st.one_of(
                st.text(max_size=6),
                st.integers(min_value=-(2**70), max_value=2**70),
                st.floats(allow_nan=False),
                st.booleans(),
                st.none(),
                st.binary(max_size=4),
                st.tuples(st.text(max_size=3), st.integers(-9, 9)),
            ),
            max_size=40,
        ),
        weighted=st.booleans(),
        compress=st.booleans(),
        data=st.data(),
    )
    def test_round_trip(self, items, weighted, compress, data):
        weights = None
        if weighted:
            weights = data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1e12),
                    min_size=len(items),
                    max_size=len(items),
                )
            )
        chunk = TokenCodec().encode_chunk(items, weights)
        encoded = serialization.dump_chunk_bytes(chunk, compress=compress)
        assert (encoded[:2] == serialization.GZIP_MAGIC) == compress
        back = serialization.load_chunk_bytes(encoded)
        assert [_typed(item) for item in back.items()] == [
            _typed(item) for item in chunk.items()
        ]
        if weighted:
            assert back.weights.tolist() == chunk.weights.tolist()
        else:
            assert back.weights is None

    def test_empty_chunk(self):
        back = serialization.load_chunk_bytes(_packed([], None))
        assert back.items() == [] and back.weights is None

    def test_lone_surrogate_string_round_trips(self):
        # Admission takes any str; JSON text carried lone surrogates as
        # \u escapes, so the packed form carries them too.
        items = ["\ud800", "ok", "\ud800"]
        assert serialization.load_chunk_bytes(_packed(items, None)).items() == items

    def test_memoryview_input(self):
        data = _packed()
        assert serialization.load_chunk_bytes(memoryview(data)).items() == ITEMS


def _typed(item):
    """Items compared with their types (``1 == True`` must not pass)."""
    if isinstance(item, tuple):
        return tuple(_typed(element) for element in item)
    if isinstance(item, float) and math.isinf(item):
        return (float, repr(item))
    return (type(item), item)


class TestMalformedInputs:
    """Each must raise SerializationError: never struct.error, IndexError,
    UnicodeDecodeError or a NumPy error."""

    def test_every_truncation(self):
        data = _packed()
        for length in range(len(data)):
            _rejects(data[:length])

    def test_every_truncation_of_a_gzip_payload(self):
        data = _packed(compress=True)
        for length in range(len(data)):
            _rejects(data[:length])

    @pytest.mark.parametrize("field", [3, 4, 5])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_header_count_off_by_one(self, field, delta):
        header = list(HEADER.unpack_from(_packed()))
        header[field] += delta
        _rejects(HEADER.pack(*header) + _packed()[HEADER.size :])

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_key_length_off_by_one(self, delta):
        data = bytearray(_packed())
        (first,) = struct.unpack_from("<I", data, HEADER.size)
        struct.pack_into("<I", data, HEADER.size, first + delta)
        _rejects(bytes(data))

    def test_key_lengths_that_do_not_cover_the_key_bytes(self):
        # A consistent total length and a valid first key: only the sum of
        # the length column can tell that a byte of the blob is unclaimed.
        data = (
            HEADER.pack(PACKED_CHUNK_MAGIC, PACKED_CHUNK_VERSION, 0, 1, 1, 4)
            + struct.pack("<I", 3)
            + b"s:ab"
            + struct.pack("<H", 0)
        )
        _rejects(data)

    def test_id_equal_to_the_entry_count(self):
        _rejects(_assemble([b"s:a", b"s:b"], [0, 2]))

    def test_key_that_is_not_utf8(self):
        _rejects(_assemble([b"s:\xff\xfe"], [0]))

    @pytest.mark.parametrize(
        "key", [b"no-tag", b"q:1", b"i:x", b"b:2", b"t:[1]", b"y:***", b"f:nan"]
    )
    def test_key_that_is_not_a_tagged_key(self, key):
        _rejects(_assemble([key], [0]))

    @pytest.mark.parametrize("weight", [float("nan"), -1.0, float("inf")])
    def test_invalid_weight(self, weight):
        _rejects(_assemble([b"s:a"], [0, 0], weights=[1.0, weight]))

    def test_trailing_byte(self):
        _rejects(_packed() + b"\x00")

    def test_unknown_version(self):
        _rejects(_assemble([b"s:a"], [0], version=PACKED_CHUNK_VERSION + 1))

    @pytest.mark.parametrize("flag", [0x02, 0x80])
    def test_unknown_flag_bits(self, flag):
        _rejects(_assemble([b"s:a"], [0], flags=flag))
        _rejects(_assemble([b"s:a"], [0], weights=[1.0], flags=flag | 1))

    def test_gzip_of_garbage(self):
        _rejects(gzip.compress(PACKED_CHUNK_MAGIC + b"garbage", mtime=0))

    def test_rejected_chunk_leaves_the_codec_usable(self):
        codec = TokenCodec()
        with pytest.raises(SerializationError):
            serialization.load_chunk_bytes(_assemble([b"s:a", b"q:"], [0, 1]), codec)
        back = serialization.load_chunk_bytes(_packed(["a", "b"], None), codec)
        assert back.items() == ["a", "b"]


class TestEarlierRecords:
    def test_json_chunk_bytes_still_load(self):
        chunk = TokenCodec().encode_chunk(ITEMS, WEIGHTS)
        legacy = json.dumps(
            serialization.dump_chunk(chunk), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        for data in (legacy, gzip.compress(legacy, mtime=0)):
            back = serialization.load_chunk_bytes(data)
            assert back.items() == ITEMS
            assert back.weights.tolist() == WEIGHTS

    def test_both_forms_share_one_bytes_memo(self):
        codec = TokenCodec()
        chunk = TokenCodec().encode_chunk(["a", ("b", 1)])
        serialization.load_chunk_bytes(serialization.dump_chunk_bytes(chunk), codec)
        serialization.load_chunk(serialization.dump_chunk(chunk), codec)
        memo = serialization._WIRE_ID_MEMO[codec]
        assert memo == {b"s:a": 0, b't:["s:b","i:1"]': 1}

    def test_warm_codec_interns_nothing_new(self):
        codec = TokenCodec()
        data = _packed()
        first = serialization.load_chunk_bytes(data, codec)
        size = len(codec)
        second = serialization.load_chunk_bytes(data, codec)
        assert len(codec) == size
        assert np.array_equal(first.ids, second.ids)
