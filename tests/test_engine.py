"""Tests for the columnar token engine (:mod:`repro.engine`).

The engine's core promise is *provable equivalence*: the vectorised
fingerprint / Carter--Wegman hash / shard kernels are bit-identical to the
scalar functions they replace, and summaries ingesting encoded columnar
chunks end up in exactly the state the scalar pipeline produces.  These
tests verify that promise property-style over ints, strings, bools, floats
and mixed batches, plus the codec/chunk mechanics, the wire format, the
vectorised shard fan-out, and the NaN-weight regression fixed alongside the
engine.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialization
from repro.algorithms.base import (
    _effective_tokens,
    aggregate_batch,
    aggregate_batch_columnar,
)
from repro.algorithms.frequent import Frequent
from repro.algorithms.frequent_real import FrequentR
from repro.algorithms.lossy_counting import LossyCounting
from repro.algorithms.space_saving import SpaceSaving, SpaceSavingHeap
from repro.distributed.partition import hash_partition, hash_partition_chunk
from repro.engine.codec import TokenAdmissionError, TokenCodec
from repro.serialization import SerializationError
from repro.service.sharding import ShardedSummarizer, partition_batch
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.hashing import (
    MERSENNE_PRIME,
    PairwiseHash,
    SignHash,
    fingerprint_array,
    hash_rows,
    shard_array,
    shard_for,
    stable_fingerprint,
)
from repro.streams.batched import (
    encode_chunks,
    ingest,
    ingest_encoded,
    ingest_weighted_encoded,
)

#: Mixed-type items covering every fingerprint branch and the extremes of
#: the 64-bit range.  Integral floats are excluded: ``0.0 == 0`` but their
#: fingerprints differ, so dict-keyed aggregation (Counter, TokenCodec)
#: collapses them onto one representative while token-by-token ``update``
#: hashes each -- a pre-existing property of every batched path, documented
#: on :class:`repro.engine.codec.TokenCodec`.  (``True == 1`` also collapses,
#: but both fingerprint to 1, so it cannot diverge.)
MIXED_ITEMS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=12),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32).filter(
        lambda x: not float(x).is_integer()
    ),
    st.tuples(st.integers(-5, 5), st.text(max_size=3)),
)


# --------------------------------------------------------------------------- #
# Kernel equivalence: vectorised == scalar, bit for bit
# --------------------------------------------------------------------------- #


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(MIXED_ITEMS, max_size=64))
    def test_fingerprint_array_matches_scalar(self, items):
        expected = [stable_fingerprint(item) for item in items]
        assert fingerprint_array(items).tolist() == expected

    def test_fingerprint_array_integer_ndarray(self):
        arr = np.array([-5, 0, 7, 2**62, -(2**63)], dtype=np.int64)
        expected = [stable_fingerprint(int(v)) for v in arr]
        assert fingerprint_array(arr).tolist() == expected
        huge = np.array([2**64 - 1, 2**63], dtype=np.uint64)
        assert fingerprint_array(huge).tolist() == [2**64 - 1, 2**63]
        bools = np.array([True, False])
        assert fingerprint_array(bools).tolist() == [1, 0]

    def test_fingerprint_array_float_ndarray_matches_unboxed(self):
        arr = np.array([2.5, -1.0, 0.0])
        assert fingerprint_array(arr).tolist() == [
            stable_fingerprint(2.5),
            stable_fingerprint(-1.0),
            stable_fingerprint(0.0),
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(MIXED_ITEMS, min_size=1, max_size=32),
        st.integers(min_value=1, max_value=10**6),
        st.randoms(use_true_random=False),
    )
    def test_pairwise_hash_array_matches_scalar(self, items, width, rnd):
        h = PairwiseHash(width, random.Random(rnd.randint(0, 2**30)))
        fingerprints = fingerprint_array(items)
        assert h.hash_array(fingerprints).tolist() == [h(item) for item in items]

    def test_pairwise_hash_array_edge_coefficients(self):
        xs = [0, 1, MERSENNE_PRIME - 1, MERSENNE_PRIME, MERSENNE_PRIME + 1,
              2**64 - 1, 2**63, 2**32 - 1, 2**32, 2**61]
        fingerprints = np.array(xs, dtype=np.uint64)
        for a, b in [(1, 0), (MERSENNE_PRIME - 1, MERSENNE_PRIME - 1), (2**60, 3)]:
            for width in (1, 2, 17, 500):
                h = PairwiseHash(width, random.Random(0))
                h._a, h._b = a, b
                expected = [((a * x + b) % MERSENNE_PRIME) % width for x in xs]
                assert h.hash_array(fingerprints).tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(MIXED_ITEMS, min_size=1, max_size=32), st.integers(0, 2**30))
    def test_sign_hash_array_matches_scalar(self, items, seed):
        s = SignHash(random.Random(seed))
        fingerprints = fingerprint_array(items)
        assert s.sign_array(fingerprints).tolist() == [
            float(s(item)) for item in items
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(MIXED_ITEMS, min_size=1, max_size=32),
        st.integers(min_value=1, max_value=64),
    )
    def test_shard_array_matches_shard_for(self, items, num_shards):
        fingerprints = fingerprint_array(items)
        assert shard_array(fingerprints, num_shards).tolist() == [
            shard_for(item, num_shards) for item in items
        ]

    def test_shard_array_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_array(np.array([1], dtype=np.uint64), 0)

    def test_hash_rows_stacks_per_hash(self):
        rng = random.Random(5)
        hashes = [PairwiseHash(77, rng) for _ in range(4)]
        items = ["a", "b", 3, True, 2.5]
        matrix = hash_rows(fingerprint_array(items), hashes)
        assert matrix.shape == (4, 5)
        for row, h in enumerate(hashes):
            assert matrix[row].tolist() == [h(item) for item in items]


# --------------------------------------------------------------------------- #
# TokenCodec
# --------------------------------------------------------------------------- #


class TestTokenCodec:
    def test_first_appearance_ids_scalar_and_array(self):
        codec = TokenCodec()
        assert codec.encode(["a", "b", "a"]).tolist() == [0, 1, 0]
        other = TokenCodec()
        assert other.encode([3, 1, 3, 2]).tolist() == [0, 1, 0, 2]
        assert other.encode(np.array([9, 2, 9], dtype=np.int64)).tolist() == [3, 2, 3]
        assert other.decode([0, 1, 2, 3]) == [3, 1, 2, 9]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(MIXED_ITEMS, max_size=64))
    def test_encode_decode_round_trip(self, items):
        codec = TokenCodec()
        decoded = codec.decode(codec.encode(items))
        # Dict semantics conflate ==-equal items (True/1, 1.0/1), exactly as
        # the scalar aggregation pipeline always has.
        canonical = {}
        for item in items:
            canonical.setdefault(item, item)
        assert decoded == [canonical[item] for item in items]

    def test_fingerprints_match_scalar(self):
        codec = TokenCodec()
        items = ["x", 17, -3, True, ("t", 1), 2.5]
        ids = codec.encode(items)
        assert codec.fingerprints(ids).tolist() == [
            stable_fingerprint(item) for item in items
        ]

    def test_vocabulary_round_trip(self):
        codec = TokenCodec()
        codec.encode(["a", 5, "b"])
        clone = TokenCodec.from_vocabulary(codec.vocabulary())
        assert clone.encode(["b", "a", 5]).tolist() == codec.encode(["b", "a", 5]).tolist()
        assert len(clone) == 3 and "a" in clone and "c" not in clone

    def test_numpy_scalars_unboxed(self):
        codec = TokenCodec()
        assert codec.intern(np.int64(7)) == codec.intern(7)
        assert codec.decode([0]) == [7]

    def test_typed_alias_hits_existing_entry(self):
        codec = TokenCodec()
        codec.intern(1.0)
        assert codec.encode(np.array([1, 5, 1], dtype=np.int64)).tolist() == [0, 1, 0]
        assert codec.decode([0, 1]) == [1.0, 5]

    def test_bool_arrays_collapse_to_ints(self):
        codec = TokenCodec()
        assert codec.encode(np.array([True, False, True])).tolist() == [0, 1, 0]
        assert codec.decode([0, 1]) == [1, 0]

    def test_sparse_int_values_disable_lut(self):
        codec = TokenCodec()
        values = np.array([0, 10**15, -(10**15), 7], dtype=np.int64)
        assert codec.encode(values).tolist() == [0, 1, 2, 3]
        # second pass exercises the searchsorted path on a warm vocabulary
        assert codec.encode(values[::-1].copy()).tolist() == [3, 2, 1, 0]

    def test_uint64_beyond_int64(self):
        codec = TokenCodec()
        arr = np.array([2**64 - 1, 3], dtype=np.uint64)
        assert codec.decode(codec.encode(arr)) == [2**64 - 1, 3]

    def test_incremental_vocabulary_growth(self):
        codec = TokenCodec()
        for low in range(0, 3000, 500):
            window = np.arange(low, low + 1000, dtype=np.int64)
            assert codec.decode(codec.encode(window)) == list(window.tolist())

    def test_mixed_int_list_falls_back_safely(self):
        codec = TokenCodec()
        items = [1, 2.5, "a", 1, True, 2**70]
        assert codec.decode(codec.encode(items)) == [1, 2.5, "a", 1, 1, 2**70]


# --------------------------------------------------------------------------- #
# EncodedChunk
# --------------------------------------------------------------------------- #


class TestEncodedChunk:
    def test_aggregate_matches_aggregate_batch(self):
        codec = TokenCodec()
        items = ["a", "b", "a", "c", "b", "a"]
        weights = [1.0, 2.0, 3.0, 0.0, 4.0, 5.0]
        chunk = codec.encode_chunk(items, weights)
        ids, totals = chunk.aggregate()
        got = {codec.item_for(int(i)): w for i, w in zip(ids, totals)}
        assert got == aggregate_batch(items, weights)
        unit = codec.encode_chunk(items)
        ids, totals = unit.aggregate()
        got = {codec.item_for(int(i)): w for i, w in zip(ids, totals)}
        assert got == aggregate_batch(items)

    def test_weight_validation(self):
        codec = TokenCodec()
        with pytest.raises(ValueError):
            codec.encode_chunk(["a"], [-1.0])
        with pytest.raises(ValueError):
            codec.encode_chunk(["a"], [float("nan")])
        with pytest.raises(ValueError):
            codec.encode_chunk(["a"], [float("inf")])
        with pytest.raises(ValueError):
            codec.encode_chunk(["a"], [float("-inf")])
        with pytest.raises(ValueError):
            codec.encode_chunk(["a", "b"], [1.0])

    def test_bookkeeping_helpers(self):
        codec = TokenCodec()
        chunk = codec.encode_chunk(["a", "b", "a"], [1.0, 0.0, 2.0])
        assert len(chunk) == 3
        assert chunk.effective_tokens() == 2
        assert chunk.total_weight == 3.0
        assert list(chunk) == ["a", "b", "a"]
        assert chunk.items() == ["a", "b", "a"]
        sub = chunk.select(np.array([2, 0]))
        assert sub.items() == ["a", "a"] and sub.weights.tolist() == [2.0, 1.0]

    def test_aggregate_batch_columnar_consistency(self):
        codec = TokenCodec()
        items = [5, 5, 9, "x", 9, 5]
        chunk = codec.encode_chunk(items)
        via_chunk = aggregate_batch_columnar(chunk)
        via_plain = aggregate_batch_columnar(items)
        assert via_chunk[2] == via_plain[2] == len(items)
        assert sorted(via_chunk[0].tolist()) == sorted(via_plain[0].tolist())
        assert sorted(zip(via_chunk[0].tolist(), via_chunk[1].tolist())) == sorted(
            zip(via_plain[0].tolist(), via_plain[1].tolist())
        )

    def test_chunk_rejects_external_weights(self):
        codec = TokenCodec()
        chunk = codec.encode_chunk(["a"], [1.0])
        with pytest.raises(ValueError):
            aggregate_batch(chunk, [2.0])
        # the chunk's own column is tolerated (idempotent unpacking)
        assert aggregate_batch(chunk, chunk.weights) == {"a": 1.0}


# --------------------------------------------------------------------------- #
# Summary equivalence under columnar ingest
# --------------------------------------------------------------------------- #


SKETCHES = [CountMinSketch, CountSketch]


class TestSketchEquivalence:
    @pytest.mark.parametrize("cls", SKETCHES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_tables_bit_identical(self, cls, data):
        items = data.draw(st.lists(MIXED_ITEMS, max_size=80))
        chunk_size = data.draw(st.integers(min_value=1, max_value=40))
        sequential = cls(width=37, depth=3, seed=11)
        sequential.update_many(items)
        columnar = cls(width=37, depth=3, seed=11)
        ingest_encoded(columnar, items, chunk_size)
        assert np.array_equal(sequential._table, columnar._table)
        assert columnar.stream_length == sequential.stream_length
        assert columnar.items_processed == sequential.items_processed

    @pytest.mark.parametrize("cls", SKETCHES)
    def test_weighted_chunks_bit_identical(self, cls):
        rng = random.Random(3)
        pairs = [(rng.randrange(50), float(rng.randrange(0, 5))) for _ in range(500)]
        sequential = cls(width=64, depth=4, seed=2)
        for item, weight in pairs:
            sequential.update(item, weight)
        columnar = cls(width=64, depth=4, seed=2)
        ingest_weighted_encoded(columnar, pairs, 128)
        assert np.array_equal(sequential._table, columnar._table)
        assert columnar.stream_length == sequential.stream_length

    @pytest.mark.parametrize("cls", SKETCHES)
    def test_ndarray_chunks_bit_identical(self, cls):
        rng = np.random.default_rng(9)
        values = rng.integers(0, 200, size=2000)
        sequential = cls(width=128, depth=4, seed=5)
        sequential.update_many(values.tolist())
        codec = TokenCodec()
        columnar = cls(width=128, depth=4, seed=5)
        for start in range(0, len(values), 512):
            columnar.update_batch(codec.encode_chunk(values[start : start + 512]))
        assert np.array_equal(sequential._table, columnar._table)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: SpaceSaving(num_counters=16),
        lambda: SpaceSavingHeap(num_counters=16),
        lambda: Frequent(num_counters=16),
        lambda: FrequentR(num_counters=16),
        lambda: LossyCounting(epsilon=0.05),
    ],
)
class TestCounterEquivalence:
    def test_single_chunk_ingest_matches_batched_exactly(self, factory):
        # With one chunk and a fresh codec, id order equals first-appearance
        # order, so the aggregated totals iterate identically to the dict
        # path and the resulting counters must match exactly.
        items = [f"item-{i}" for i in range(30) for _ in range(i + 1)]
        random.Random(0).shuffle(items)
        plain = factory()
        plain.update_batch(items)
        columnar = factory()
        ingest_encoded(columnar, items, chunk_size=len(items))
        assert plain.counters() == columnar.counters()
        assert plain.per_item_errors() == columnar.per_item_errors()
        assert plain.stream_length == columnar.stream_length
        assert plain.items_processed == columnar.items_processed

    def test_chunked_ingest_keeps_guarantees(self, factory):
        # Across chunks, id order (first appearance ever) and dict order
        # (first appearance per chunk) break weight ties differently, so
        # individual counters may differ -- but the bookkeeping and the
        # algorithm's one-sidedness guarantee must hold either way.
        items = [f"item-{i}" for i in range(30) for _ in range(i + 1)]
        random.Random(0).shuffle(items)
        exact = {}
        for item in items:
            exact[item] = exact.get(item, 0.0) + 1.0
        columnar = factory()
        ingest_encoded(columnar, items, chunk_size=64)
        assert columnar.stream_length == float(len(items))
        assert columnar.items_processed == len(items)
        side = type(columnar).estimate_side
        for item, count in columnar.counters().items():
            if side == "over":
                assert count >= exact[item]
            elif side == "under":
                assert count <= exact[item]


class TestBaseFallback:
    def test_base_fallback_decodes_chunks(self):
        # Eager FREQUENT declines the fast path and replays sequentially; a
        # chunk must decode transparently on that path too.
        codec = TokenCodec()
        eager = Frequent(num_counters=8, mode="eager")
        replay = Frequent(num_counters=8, mode="eager")
        items = ["a", "b", "a", "c"] * 5
        eager.update_batch(codec.encode_chunk(items))
        replay.update_many(items)
        assert eager.counters() == replay.counters()


# --------------------------------------------------------------------------- #
# Shard fan-out and distributed partitioning
# --------------------------------------------------------------------------- #


class TestVectorisedSharding:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(MIXED_ITEMS, max_size=60),
        st.integers(min_value=1, max_value=8),
    )
    def test_partition_batch_chunk_placement(self, items, num_shards):
        chunk = TokenCodec().encode_chunk(items)
        parts = partition_batch(chunk, num_shards)
        rebuilt = []
        for shard_id, part in parts.items():
            assert part.weights is None
            assert part.codec is chunk.codec
            assert len(part)  # empty shards are omitted
            for item in part:
                assert shard_for(item, num_shards) == shard_id
            rebuilt.extend(part.ids.tolist())
        # each shard preserves arrival order; the union preserves multiset
        assert sorted(rebuilt) == sorted(chunk.ids.tolist())

    def test_object_dtype_arrays_route_like_sequences(self):
        # Regression: mixed-type object arrays must not reach np.unique in a
        # shard worker (sort across str/int raises TypeError).  The codec
        # interns them like a plain sequence.
        mixed = np.array(["a", 1, "b", 2, "a"], dtype=object)
        chunk = TokenCodec().encode_chunk(mixed)
        assert chunk.items() == mixed.tolist()
        with ShardedSummarizer(lambda: SpaceSaving(8), num_shards=2) as sharded:
            sharded.ingest(chunk)
            sharded.flush()
            assert sharded.stream_length == 5.0
        assert aggregate_batch(mixed) == {"a": 2.0, 1: 1.0, "b": 1.0, 2: 1.0}

    def test_chunk_weights_are_snapshotted(self):
        # Regression: a producer reusing its weight buffer after encoding
        # must not corrupt a chunk already enqueued on a shard.
        codec = TokenCodec()
        buffer = np.array([1.0, 2.0, 3.0])
        chunk = codec.encode_chunk(["a", "b", "c"], buffer)
        buffer[:] = 999.0
        assert chunk.weights.tolist() == [1.0, 2.0, 3.0]

    def test_sharded_summarizer_encoded_ingest_matches_direct(self):
        items = [f"user-{i % 97}" for i in range(8000)]
        direct = SpaceSaving(num_counters=256)
        ingest(direct, items, 1024)
        codec = TokenCodec()
        with ShardedSummarizer(
            lambda: SpaceSaving(num_counters=256), num_shards=3
        ) as sharded:
            for chunk in encode_chunks(items, 1024, codec):
                sharded.ingest(chunk)
            sharded.flush()
            assert sharded.stream_length == direct.stream_length
            merged = {}
            for summary in sharded.shard_summaries():
                merged.update(summary.counters())
        # hash partitioning separates items, so per-item estimates must agree
        for item, count in direct.counters().items():
            assert merged[item] == count

    def test_hash_partition_matches_shard_for(self):
        from repro.streams.stream import Stream

        stream = Stream([f"q{i % 37}" for i in range(500)] + [5, True, 2.5] * 10)
        sites = hash_partition(stream, 4)
        assert sum(len(site) for site in sites) == len(stream)
        for index, site in enumerate(sites):
            for item in site.items:
                assert shard_for(item, 4) == index

    def test_hash_partition_chunk_shares_codec(self):
        codec = TokenCodec()
        chunk = codec.encode_chunk([f"k{i % 11}" for i in range(200)])
        sites = hash_partition_chunk(chunk, 3)
        assert len(sites) == 3
        assert sum(len(site) for site in sites) == 200
        for index, site in enumerate(sites):
            assert site.codec is codec
            for item in site.items():
                assert shard_for(item, 3) == index


# --------------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------------- #


class TestChunkSerialization:
    def test_round_trip_compacts_vocabulary(self):
        codec = TokenCodec()
        codec.encode(["unused-padding-%d" % i for i in range(50)])
        chunk = codec.encode_chunk(["a", 5, -3, "a", 2.5], [1.0, 2.0, 0.0, 3.0, 4.0])
        payload = serialization.dump_chunk(chunk)
        assert len(payload["vocabulary"]) == 4  # only referenced entries ship
        restored = serialization.load_chunk(payload)
        assert restored.items() == ["a", 5, -3, "a", 2.5]
        assert restored.weights.tolist() == [1.0, 2.0, 0.0, 3.0, 4.0]

    def test_round_trip_bytes_gzip(self):
        codec = TokenCodec()
        chunk = codec.encode_chunk(["x"] * 100 + ["y"] * 50)
        for compress in (False, True):
            data = serialization.dump_chunk_bytes(chunk, compress=compress)
            back = serialization.load_chunk_bytes(data)
            assert back.items() == chunk.items()
            assert back.weights is None

    def test_load_into_shared_codec(self):
        site_codec = TokenCodec()
        payload = serialization.dump_chunk(site_codec.encode_chunk(["a", "b", "a"]))
        coordinator = TokenCodec()
        coordinator.encode(["b", "z"])  # pre-existing vocabulary
        merged = serialization.load_chunk(payload, coordinator)
        assert merged.codec is coordinator
        assert merged.items() == ["a", "b", "a"]
        assert len(coordinator) == 3  # z, b reused; a interned

    def test_invalid_payloads_rejected(self):
        with pytest.raises(SerializationError):
            serialization.load_chunk({"format": "nope"})
        with pytest.raises(SerializationError):
            serialization.load_chunk(
                {"format": "repro-chunk", "version": 99, "ids": [], "vocabulary": []}
            )
        with pytest.raises(SerializationError):
            serialization.load_chunk(
                {
                    "format": "repro-chunk",
                    "version": 1,
                    "ids": [3],
                    "vocabulary": ["s:a"],
                }
            )
        with pytest.raises(SerializationError):
            serialization.load_chunk_bytes(b"\x1f\x8b garbage")

    def test_structured_vocabulary_round_trips(self):
        # Wire format v2: tuples (the flow-key case) ride along in the
        # chunk vocabulary instead of failing at dump time.
        codec = TokenCodec()
        chunk = codec.encode_chunk([("tuple", 1), b"raw", None, ("tuple", 1)])
        clone = serialization.load_chunk(serialization.dump_chunk(chunk))
        assert clone.items() == [("tuple", 1), b"raw", None, ("tuple", 1)]

    def test_unserialisable_items_rejected(self):
        # Admission control now lives in the codec: an uncarriable token
        # never reaches a chunk at all.
        codec = TokenCodec()
        with pytest.raises(TokenAdmissionError):
            codec.encode_chunk([frozenset({"x"})])
        # A codec that opted out of validation still cannot *persist* the
        # token -- dump_chunk rejects it at the wire boundary.
        permissive = TokenCodec(validate=False)
        chunk = permissive.encode_chunk([frozenset({"x"})])
        with pytest.raises(SerializationError):
            serialization.dump_chunk(chunk)


# --------------------------------------------------------------------------- #
# NaN-weight regression (satellite): list and ndarray branches agree
# --------------------------------------------------------------------------- #


class TestNaNWeightRegression:
    def test_effective_tokens_rejects_nan_consistently(self):
        items = ["a", "b"]
        with pytest.raises(ValueError):
            _effective_tokens(items, [1.0, float("nan")])
        with pytest.raises(ValueError):
            _effective_tokens(items, np.array([1.0, float("nan")]))
        # both branches agree on the zero-weight convention too
        assert _effective_tokens(items, [1.0, 0.0]) == 1
        assert _effective_tokens(items, np.array([1.0, 0.0])) == 1

    def test_aggregate_batch_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                aggregate_batch(["a"], [bad])
            with pytest.raises(ValueError):
                aggregate_batch(np.array([1]), np.array([bad]))

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SpaceSaving(num_counters=8),
            lambda: SpaceSavingHeap(num_counters=8),
            lambda: FrequentR(num_counters=8),
            lambda: CountMinSketch(width=16, depth=2),
            lambda: CountSketch(width=16, depth=2),
        ],
    )
    def test_update_batch_rejects_nan_before_mutation(self, factory):
        summary = factory()
        before = summary.stream_length
        for weights in ([1.0, float("nan")], np.array([1.0, float("nan")])):
            with pytest.raises(ValueError):
                summary.update_batch(["a", "b"], weights)
        assert summary.stream_length == before

    def test_scalar_update_rejects_nan(self):
        summary = SpaceSaving(num_counters=4)
        with pytest.raises(ValueError):
            summary.update("a", float("nan"))
        with pytest.raises(ValueError):
            summary.update("a", math.inf)
        assert summary.stream_length == 0.0


class TestNumpyScalarKeys:
    def test_ndarray_items_with_list_weights_unboxed(self):
        # Regression: the scalar aggregation fallback used to keep NumPy
        # scalar dict keys, whose reprs fingerprint differently from the
        # plain floats queries hash -- the weights landed in cells no
        # estimate() ever read.
        sketch = CountMinSketch(width=50, depth=4, seed=3)
        sketch.update_batch(np.array([1.5, 2.5]), [2.0, 3.0])
        assert sketch.estimate(1.5) == 2.0
        assert sketch.estimate(2.5) == 3.0
        totals = aggregate_batch(np.array([1.5, 2.5]), [2.0, 3.0])
        assert all(type(key) is float for key in totals)
