"""Tests for summary serialisation (wire format for merging / storage)."""

import json

import pytest

from repro import serialization
from repro.algorithms.array_summary import ArraySummary
from repro.algorithms.frequent import Frequent
from repro.algorithms.frequent_real import FrequentR
from repro.algorithms.lossy_counting import LossyCounting
from repro.algorithms.space_saving import SpaceSaving, SpaceSavingHeap
from repro.algorithms.space_saving_real import SpaceSavingR
from repro.core.merging import DisjointUnion, merge_summaries
from repro.sketches.count_min import CountMinSketch
from repro.streams.exact import ExactCounter
from repro.streams.generators import zipf_stream


ALL_CLASSES = [
    lambda: Frequent(num_counters=32),
    lambda: FrequentR(num_counters=32),
    lambda: SpaceSaving(num_counters=32),
    lambda: SpaceSavingHeap(num_counters=32),
    lambda: SpaceSavingR(num_counters=32),
    lambda: ExactCounter(),
]


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(num_items=300, alpha=1.2, total=4_000, seed=55)


class TestRoundTrip:
    @pytest.mark.parametrize("factory", ALL_CLASSES)
    def test_estimates_preserved(self, factory, stream):
        original = factory()
        stream.feed(original)
        clone = serialization.load(serialization.dump(original))
        assert type(clone) is type(original)
        assert clone.num_counters == original.num_counters
        assert clone.stream_length == original.stream_length
        assert clone.counters() == original.counters()
        for item in list(stream.frequencies())[:50]:
            assert clone.estimate(item) == original.estimate(item)

    @pytest.mark.parametrize("factory", ALL_CLASSES)
    def test_json_round_trip(self, factory, stream):
        original = factory()
        stream.feed(original)
        text = serialization.dumps(original)
        json.loads(text)  # valid JSON
        clone = serialization.loads(text)
        assert clone.counters() == original.counters()

    def test_per_item_errors_preserved(self, stream):
        original = SpaceSaving(num_counters=32)
        stream.feed(original)
        clone = serialization.load(serialization.dump(original))
        assert clone.per_item_errors() == original.per_item_errors()
        assert clone.min_count == original.min_count

    def test_lossy_counting_round_trip(self, stream):
        original = LossyCounting(epsilon=0.05)
        stream.feed(original)
        clone = serialization.load(serialization.dump(original))
        assert clone.counters() == original.counters()
        assert clone.epsilon == original.epsilon
        # The clone keeps pruning on the original schedule.
        clone.update_many(list(stream.items[:40]))
        assert clone.stream_length == original.stream_length + 40

    def test_clone_keeps_processing(self, stream):
        original = SpaceSaving(num_counters=16)
        stream.feed(original)
        clone = serialization.load(serialization.dump(original))
        clone.update_many(["brand-new-item"] * 100)
        assert clone.estimate("brand-new-item") >= 100
        assert sum(clone.counters().values()) == pytest.approx(
            original.stream_length + 100
        )

    def test_string_and_int_items_coexist(self):
        original = SpaceSavingHeap(num_counters=8)
        original.update_many(["a", 1, "a", 2, 1])
        clone = serialization.load(serialization.dump(original))
        assert clone.estimate("a") == 2.0
        assert clone.estimate(1) == 2.0
        assert clone.estimate(2) == 1.0

    def test_merging_deserialized_site_summaries(self, stream):
        """The Section 6.2 deployment: sites ship payloads, coordinator merges."""
        payloads = []
        for part in stream.split(4):
            summary = SpaceSaving(num_counters=64)
            part.feed(summary)
            payloads.append(serialization.dumps(summary))
        summaries = [serialization.loads(text) for text in payloads]
        merged = merge_summaries(
            summaries, k=10, make_estimator=lambda: SpaceSaving(num_counters=64)
        )
        assert merged.check(stream.frequencies()).holds


#: One instance of every registered class, so a newly registered summary
#: cannot skip the copy contract.
REGISTRY_FACTORIES = {
    "ArraySummary": lambda: ArraySummary(num_counters=32),
    "Frequent": lambda: Frequent(num_counters=32),
    "FrequentR": lambda: FrequentR(num_counters=32),
    "LossyCounting": lambda: LossyCounting(epsilon=0.05),
    "SpaceSaving": lambda: SpaceSaving(num_counters=32),
    "SpaceSavingHeap": lambda: SpaceSavingHeap(num_counters=32),
    "SpaceSavingR": lambda: SpaceSavingR(num_counters=32),
    "ExactCounter": lambda: ExactCounter(),
}


def _flows(seed, total):
    """Structured flow-tuple tokens with a skewed key distribution."""
    stream = zipf_stream(num_items=200, alpha=1.1, total=total, seed=seed)
    return [("10.0.0.1", int(item), "tcp") for item in stream.items]


class TestCopy:
    def test_every_registered_class_is_covered(self):
        assert set(REGISTRY_FACTORIES) == set(serialization._REGISTRY)

    @pytest.mark.parametrize("name", sorted(REGISTRY_FACTORIES))
    def test_copy_serialises_identically(self, name):
        original = REGISTRY_FACTORIES[name]()
        original.update_batch(_flows(1, 3_000))
        clone = original.copy()
        assert type(clone) is type(original)
        assert serialization.dumps(clone) == serialization.dumps(original)

    @pytest.mark.parametrize("name", sorted(REGISTRY_FACTORIES))
    def test_copy_is_independent(self, name):
        original = REGISTRY_FACTORIES[name]()
        original.update_batch(_flows(2, 3_000))
        before = serialization.dumps(original)
        clone = original.copy()
        clone.update_batch(_flows(3, 1_000))
        assert serialization.dumps(original) == before
        clone_state = serialization.dumps(clone)
        original.update_batch(_flows(4, 1_000))
        assert serialization.dumps(clone) == clone_state

    @pytest.mark.parametrize("name", sorted(REGISTRY_FACTORIES))
    def test_copy_evolves_like_the_original(self, name):
        original = REGISTRY_FACTORIES[name]()
        original.update_batch(_flows(5, 3_000))
        clone = original.copy()
        for seed in (6, 7):
            more = _flows(seed, 1_500)
            original.update_batch(more)
            clone.update_batch(more)
        assert serialization.dumps(clone) == serialization.dumps(original)

    def test_space_saving_copy_of_a_long_bucket_list(self):
        """One bucket per counter: a recursive deep copy overflows here."""
        original = SpaceSaving(num_counters=1_000)
        for index in range(1_000):
            original.update(("flow", index), float(index + 1))
        clone = original.copy()
        assert serialization.dumps(clone) == serialization.dumps(original)
        clone.update(("flow", "new"), 0.5)
        assert original.estimate(("flow", "new")) == 0.0
        assert clone.min_count == 1.5


class TestValidation:
    def test_unregistered_class_rejected(self):
        sketch = CountMinSketch(width=8, depth=2)
        with pytest.raises(serialization.SerializationError):
            serialization.dump(sketch)

    def test_wrong_format_rejected(self):
        with pytest.raises(serialization.SerializationError):
            serialization.load({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self):
        payload = serialization.dump(Frequent(num_counters=4))
        payload["version"] = 99
        with pytest.raises(serialization.SerializationError):
            serialization.load(payload)

    def test_unknown_algorithm_rejected(self):
        payload = serialization.dump(Frequent(num_counters=4))
        payload["algorithm"] = "Mystery"
        with pytest.raises(serialization.SerializationError):
            serialization.load(payload)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(serialization.SerializationError):
            serialization.load(["not", "a", "dict"])

    def test_invalid_json_rejected(self):
        with pytest.raises(serialization.SerializationError):
            serialization.loads("{not json")

    def test_unsupported_item_type_rejected(self):
        summary = SpaceSaving(num_counters=4)
        summary.update(frozenset({"still", "not", "carriable"}))
        with pytest.raises(serialization.SerializationError):
            serialization.dump(summary)

    def test_nan_items_rejected(self):
        # NaN != NaN: a NaN token could never be queried back, so the wire
        # format refuses it rather than producing an unreachable key.
        summary = SpaceSaving(num_counters=4)
        summary.update(float("nan"))
        with pytest.raises(serialization.SerializationError):
            serialization.dump(summary)

    def test_structured_items_round_trip(self):
        # Wire format v2: tuples, bools, None and bytes are first-class
        # tokens (the network-flow 5-tuple workload of the introduction).
        summary = SpaceSaving(num_counters=8)
        flow = ("10.0.0.1", "192.168.0.9", 443, 51734, "tcp")
        summary.update_many([flow, flow, True, None, b"\x00\xffbinary", flow])
        clone = serialization.load(serialization.dump(summary))
        assert clone.counters() == summary.counters()
        assert clone.estimate(flow) == 3.0
        assert clone.estimate(True) == 1.0
        assert clone.estimate(None) == 1.0
        assert clone.estimate(b"\x00\xffbinary") == 1.0


class TestSizeAccounting:
    def test_size_matches_word_model(self, stream):
        summary = SpaceSaving(num_counters=32)
        stream.feed(summary)
        payload = serialization.dump(summary)
        expected = 2 * len(summary.counters()) + len(summary.per_item_errors())
        assert serialization.serialized_size_words(payload) == expected

    def test_size_grows_with_counters(self, stream):
        small = SpaceSaving(num_counters=8)
        large = SpaceSaving(num_counters=64)
        stream.feed(small)
        stream.feed(large)
        assert serialization.serialized_size_words(
            serialization.dump(small)
        ) < serialization.serialized_size_words(serialization.dump(large))


class TestBytesAndCompression:
    def test_dump_bytes_plain_round_trip(self, stream):
        original = SpaceSaving(num_counters=32)
        stream.feed(original)
        data = serialization.dump_bytes(original)
        assert isinstance(data, bytes)
        assert data[:2] != serialization.GZIP_MAGIC
        clone = serialization.load_bytes(data)
        assert clone.counters() == original.counters()

    def test_dump_bytes_gzip_round_trip(self, stream):
        original = SpaceSaving(num_counters=200)
        stream.feed(original)
        compressed = serialization.dump_bytes(original, compress=True)
        assert compressed[:2] == serialization.GZIP_MAGIC
        clone = serialization.load_bytes(compressed)
        assert clone.counters() == original.counters()
        assert clone.per_item_errors() == original.per_item_errors()

    def test_gzip_output_is_deterministic_and_smaller(self, stream):
        original = SpaceSaving(num_counters=200)
        stream.feed(original)
        first = serialization.dump_bytes(original, compress=True)
        second = serialization.dump_bytes(original, compress=True)
        assert first == second
        assert len(first) < len(serialization.dump_bytes(original))

    def test_load_bytes_rejects_garbage(self):
        with pytest.raises(serialization.SerializationError):
            serialization.load_bytes(b"\x1f\x8bnot really gzip")
        with pytest.raises(serialization.SerializationError):
            serialization.load_bytes(b"\xff\xfe\x00invalid")

    def test_load_bytes_rejects_truncated_gzip(self, stream):
        original = SpaceSaving(num_counters=32)
        stream.feed(original)
        compressed = serialization.dump_bytes(original, compress=True)
        # A partially written snapshot file (e.g. crash mid-persist) must
        # surface as SerializationError, not a raw EOFError/zlib.error.
        with pytest.raises(serialization.SerializationError):
            serialization.load_bytes(compressed[: len(compressed) // 2])

    def test_wire_cost_reports_both_models(self, stream):
        original = SpaceSaving(num_counters=200)
        stream.feed(original)
        plain = serialization.wire_cost(original)
        packed = serialization.wire_cost(original, compress=True)
        payload = serialization.dump(original)
        assert plain.words == serialization.serialized_size_words(payload)
        assert plain.words == packed.words  # word model ignores encoding
        assert plain.wire_bytes == plain.json_bytes
        assert plain.compression_ratio == 1.0
        assert packed.compressed
        assert packed.wire_bytes < packed.json_bytes
        assert packed.compression_ratio > 1.0
        assert packed.wire_bytes == len(
            serialization.dump_bytes(original, compress=True)
        )


def _union(factory, stream, parts=3):
    """A union of ``parts`` summaries over key-disjoint slices of ``stream``."""
    summaries = [factory() for _ in range(parts)]
    for item in stream.items:
        summaries[int(item) % parts].update(int(item))
    return DisjointUnion(summaries)


class TestDisjointUnionPayload:
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("factory", ALL_CLASSES)
    def test_round_trip(self, factory, stream, compress):
        union = _union(factory, stream)
        clone = serialization.load_bytes(serialization.dump_bytes(union, compress=compress))
        assert isinstance(clone, DisjointUnion)
        assert [type(part) for part in clone.parts] == [type(part) for part in union.parts]
        assert clone.num_counters == union.num_counters
        assert clone.stream_length == union.stream_length
        assert clone.per_item_errors() == union.per_item_errors()
        for item in list(stream.frequencies()) + ["absent"]:
            assert clone.estimate(item) == union.estimate(item)
        assert clone.top_k(len(clone)) == union.top_k(len(union))
        assert serialization.loads(serialization.dumps(union)).counters() == union.counters()

    def test_words_are_the_sum_of_the_parts(self, stream):
        union = _union(lambda: SpaceSaving(num_counters=32), stream)
        payload = serialization.dump(union)
        assert payload["algorithm"] == "DisjointUnion"
        assert serialization.serialized_size_words(payload) == sum(
            serialization.serialized_size_words(serialization.dump(part))
            for part in union.parts
        )

    def _payload(self, stream):
        return serialization.dump(_union(lambda: SpaceSaving(num_counters=32), stream))

    def test_no_parts_rejected(self, stream):
        payload = self._payload(stream)
        for parts in ([], None, "parts"):
            with pytest.raises(serialization.SerializationError):
                serialization.load({**payload, "parts": parts})

    def test_mismatched_budgets_rejected(self, stream):
        payload = self._payload(stream)
        odd = serialization.dump(SpaceSaving(num_counters=16))
        with pytest.raises(serialization.SerializationError, match="budget"):
            serialization.load({**payload, "parts": [*payload["parts"], odd]})

    def test_nested_union_rejected(self, stream):
        payload = self._payload(stream)
        with pytest.raises(serialization.SerializationError, match="unions"):
            serialization.load({**payload, "parts": [payload]})
        with pytest.raises(ValueError, match="unions"):
            DisjointUnion([serialization.load(payload)])
