"""Tests for sliding-window heavy hitters (repro.service.windows)."""

import collections

import numpy as np
import pytest

from repro import serialization
from repro.algorithms.space_saving import SpaceSaving
from repro.core.tail_guarantee import TailGuarantee
from repro.service.windows import WindowedSummarizer
from repro.streams.generators import drifting_zipf_streams


def make_summarizer(num_buckets=4, counters=300, k=10):
    return WindowedSummarizer(
        lambda: SpaceSaving(num_counters=counters), num_buckets=num_buckets, k=k
    )


class TestBucketMechanics:
    def test_advance_rotates_and_expires(self, encode):
        windowed = make_summarizer(num_buckets=3)
        for bucket in range(5):
            windowed.update_batch(encode([f"item-{bucket}"] * 10))
            if bucket < 4:
                windowed.advance()
        assert windowed.current_bucket == 4
        live = dict(windowed.live_buckets())
        assert sorted(live) == [2, 3, 4]  # buckets 0 and 1 expired
        answer = windowed.query()
        assert answer.estimate("item-1") == 0.0  # expired with its bucket
        assert answer.estimate("item-3") == 10.0

    def test_advance_multiple_steps(self, encode):
        windowed = make_summarizer(num_buckets=3)
        windowed.update_batch(encode(["old"]))
        assert windowed.advance(steps=3) == 3
        assert windowed.query().estimate("old") == 0.0

    def test_huge_advance_builds_at_most_a_ring_of_buckets(self, encode):
        built = []

        def counting():
            built.append(1)
            return SpaceSaving(num_counters=16)

        windowed = WindowedSummarizer(counting, num_buckets=3)
        windowed.update_batch(encode(["old"]))
        built.clear()
        assert windowed.advance(steps=10**6) == 10**6
        assert len(built) <= 3
        assert windowed.advances_total == 10**6
        assert [bucket_id for bucket_id, _ in windowed.live_buckets()] == [
            10**6 - 2,
            10**6 - 1,
            10**6,
        ]
        assert windowed.query().estimate("old") == 0.0

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 7])
    def test_multi_step_advance_equals_single_steps(self, steps, encode):
        stepped = make_summarizer(num_buckets=4)
        jumped = make_summarizer(num_buckets=4)
        for windowed in (stepped, jumped):
            windowed.update_batch(encode(["a"] * 5))
            windowed.advance()
            windowed.update_batch(encode(["b"] * 3))
        for _ in range(steps):
            stepped.advance()
        assert jumped.advance(steps) == stepped.current_bucket
        assert jumped.live_buckets() == stepped.live_buckets()
        assert jumped.advances_total == stepped.advances_total

    def test_plain_sequences_rejected_before_the_bucket_changes(self, encode):
        windowed = make_summarizer(num_buckets=2)
        windowed.update_batch(encode(["a"] * 3))
        for plain in (["a", "b"], ("a",), np.array([1, 2])):
            with pytest.raises(TypeError, match="TokenCodec.encode_chunk"):
                windowed.update_batch(plain)
        answer = windowed.query(window=1)
        assert answer.estimator.counters() == {"a": 3.0}
        assert answer.stream_length == 3.0

    def test_window_argument_validated(self):
        windowed = make_summarizer(num_buckets=3)
        with pytest.raises(ValueError):
            windowed.query(window=0)
        with pytest.raises(ValueError):
            windowed.query(window=4)
        with pytest.raises(ValueError):
            windowed.query(k=0)
        with pytest.raises(ValueError):
            windowed.advance(steps=0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            make_summarizer(num_buckets=0)
        with pytest.raises(ValueError):
            make_summarizer(k=0)


class TestEmptyWindow:
    def test_fresh_summarizer_answers_empty(self):
        answer = make_summarizer().query()
        assert answer.empty
        assert answer.buckets_merged == 0
        assert answer.stream_length == 0.0
        assert answer.estimate("anything") == 0.0
        assert answer.top_k(5) == []
        assert answer.heavy_hitters(0.1) == []
        assert answer.check({}).holds

    def test_window_of_only_idle_buckets_is_empty(self, encode):
        windowed = make_summarizer(num_buckets=4)
        windowed.update_batch(encode(["busy"] * 20))
        windowed.advance(steps=2)  # two idle buckets since the traffic
        answer = windowed.query(window=2)
        assert answer.empty
        assert windowed.query(window=3).estimate("busy") == 20.0


class TestGuarantees:
    def test_single_bucket_keeps_sharp_constants(self, encode):
        windowed = make_summarizer()
        windowed.update_batch(encode(["a"] * 30 + ["b"] * 10))
        answer = windowed.query(window=1)
        assert answer.buckets_merged == 1
        assert answer.constants == TailGuarantee(a=1.0, b=1.0)
        assert answer.estimate("a") == 30.0

    def test_merged_window_carries_theorem11_constants(self, encode):
        windowed = make_summarizer()
        for bucket in range(3):
            windowed.update_batch(encode([f"item-{bucket}"] * 10))
            if bucket < 2:
                windowed.advance()
        answer = windowed.query(window=3)
        assert answer.buckets_merged == 3
        assert answer.constants == TailGuarantee(a=3.0, b=2.0)

    def test_windowed_answer_matches_exact_recount_within_bound(self, encode):
        windowed = make_summarizer(num_buckets=4, counters=500, k=10)
        buckets = drifting_zipf_streams(
            2_000, alpha=1.2, tokens_per_bucket=6_000, num_buckets=5, drift=40, seed=3
        )
        for index, bucket_stream in enumerate(buckets):
            if index:
                windowed.advance()
            windowed.update_batch(encode(bucket_stream.items))

        window_exact = collections.Counter()
        for bucket_stream in buckets[-3:]:
            window_exact.update(bucket_stream.items)

        answer = windowed.query(window=3)
        assert answer.buckets_merged == 3
        assert answer.stream_length == float(sum(window_exact.values()))
        check = answer.check(window_exact)
        assert check.holds, check
        bound = answer.bound(window_exact)
        for item, estimate in answer.top_k(10):
            assert abs(estimate - window_exact.get(item, 0)) <= bound + 1e-9

    def test_query_does_not_disturb_live_buckets(self, encode):
        windowed = make_summarizer()
        windowed.update_batch(encode(["a"] * 50))
        before = windowed.query().estimate("a")
        windowed.update_batch(encode(["a"] * 50))
        assert windowed.query().estimate("a") == before + 50.0

    def test_single_bucket_answer_is_an_independent_copy(self, monkeypatch, encode):
        windowed = make_summarizer()
        windowed.update_batch(encode(["a"] * 50 + ["b"] * 5))
        expected = serialization.dumps(windowed.bucket_states()[-1][1])

        def refuse(_payload):
            raise AssertionError("window queries must not deserialise")

        monkeypatch.setattr(serialization, "load", refuse)
        answer = windowed.query(window=1)
        assert serialization.dumps(answer.estimator) == expected
        answer.estimator.update("a", 10.0)
        assert windowed.query(window=1).estimate("a") == 50.0

    def test_heavy_hitters_threshold(self, encode):
        windowed = make_summarizer()
        windowed.update_batch(encode(["hot"] * 80 + ["cold"] * 20))
        answer = windowed.query()
        assert dict(answer.heavy_hitters(0.5)) == {"hot": 80.0}
        with pytest.raises(ValueError):
            answer.heavy_hitters(1.5)


class TestRoundTripEquivalence:
    def test_window_answer_survives_serialization(self, encode):
        """A window answer persisted and reloaded answers identically."""
        windowed = make_summarizer(num_buckets=3, counters=200)
        buckets = drifting_zipf_streams(
            500, alpha=1.3, tokens_per_bucket=2_000, num_buckets=3, drift=10, seed=9
        )
        for index, bucket_stream in enumerate(buckets):
            if index:
                windowed.advance()
            windowed.update_batch(encode(bucket_stream.items))
        answer = windowed.query(window=3)
        reloaded = serialization.load_bytes(
            serialization.dump_bytes(answer.estimator, compress=True)
        )
        assert reloaded.counters() == answer.estimator.counters()
        assert reloaded.top_k(10) == answer.estimator.top_k(10)
        for item in list(collections.Counter(buckets[-1].items))[:50]:
            assert reloaded.estimate(item) == answer.estimate(item)
