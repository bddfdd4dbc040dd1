"""ArraySummary: the batched FREQUENT kernel behind the service's shards."""

import collections
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import serialization
from repro.algorithms.array_summary import ArraySummary
from repro.algorithms.space_saving import SpaceSaving
from repro.core.merging import DisjointUnion, merge_summaries
from repro.core.tail_guarantee import TailGuarantee
from repro.engine.codec import TokenCodec
from repro.engine.vectorized import stable_fingerprint
from repro.metrics.error import max_error, residual
from repro.service import HeavyHittersService, ServiceConfig, recover, resume_service
from repro.streams.adversarial import lossy_hostile_stream
from repro.streams.batched import iter_chunks
from repro.streams.generators import zipf_stream

DATA_DIR = Path(__file__).parent / "data"
M = 64


def feed(summary, tokens, chunk_size=500, codec=None, weights=None):
    codec = TokenCodec() if codec is None else codec
    for start in range(0, len(tokens), chunk_size):
        part = None if weights is None else weights[start : start + chunk_size]
        summary.update_batch(codec.encode_chunk(tokens[start : start + chunk_size], part))
    return summary


def zipf_tokens(seed, total=20_000, alpha=1.1):
    stream = zipf_stream(num_items=3_000, alpha=alpha, total=total, seed=seed)
    return [int(item) for item in stream.items]


def exact(tokens, weights=None):
    counts = collections.Counter()
    for index, token in enumerate(tokens):
        counts[token] += 1.0 if weights is None else weights[index]
    return dict(counts)


class TestGuarantee:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stored_estimates_never_below_true_counts(self, seed):
        tokens = zipf_tokens(seed)
        summary = feed(ArraySummary(M), tokens)
        truth = exact(tokens)
        d = summary.decrement
        assert d > 0
        for item, estimate in summary.counters().items():
            assert truth[item] <= estimate <= truth[item] + d
        for item, count in truth.items():
            if item not in summary:
                assert summary.estimate(item) == 0.0 and count <= d

    @pytest.mark.parametrize("weighted", [False, True])
    def test_decrement_within_the_k_tail_bound_for_every_k(self, weighted):
        tokens = zipf_tokens(7)
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.5, 3.0, len(tokens)).tolist() if weighted else None
        summary = feed(ArraySummary(M), tokens, weights=weights)
        truth = exact(tokens, weights)
        for k in range(0, M):
            assert summary.decrement <= residual(truth, k) / (M + 1 - k) + 1e-9
        assert max_error(truth, summary) <= summary.decrement + 1e-9
        assert summary.stream_length == pytest.approx(sum(truth.values()))
        assert TailGuarantee.for_algorithm(summary) == TailGuarantee(a=1.0, b=1.0)

    def test_top_k_never_empty_on_a_lossy_hostile_stream(self):
        tokens = list(lossy_hostile_stream(epsilon=1.0 / 64, epochs=20).items)
        summary = ArraySummary(M)
        codec = TokenCodec()
        for chunk in iter_chunks(tokens, 300):
            summary.update_batch(codec.encode_chunk(chunk))
            assert len(summary) == min(M, len(set(tokens[: summary.items_processed])))
            assert summary.top_k(5)

    def test_merge_keeps_the_bound_on_the_combined_stream(self):
        parts, combined = [], []
        for seed in (11, 12, 13, 14):
            tokens = zipf_tokens(seed, total=6_000)
            parts.append(feed(ArraySummary(M), tokens))
            combined += tokens
        merged = ArraySummary.merge(parts)
        truth = exact(combined)
        assert merged.stream_length == len(combined)
        assert max_error(truth, merged) <= residual(truth, 8) / (M - 8)
        for item, estimate in merged.counters().items():
            assert estimate >= truth[item]
        result = merge_summaries(parts, k=8)
        assert isinstance(result.estimator, ArraySummary)
        assert result.merged_constants == TailGuarantee(a=3.0, b=2.0)


class TestCopyAndPayloads:
    def test_copy_is_independent(self):
        original = feed(ArraySummary(M), zipf_tokens(4, total=5_000))
        before = serialization.dumps(original)
        clone = original.copy()
        feed(clone, zipf_tokens(5, total=5_000))
        assert serialization.dumps(original) == before
        clone.update("late", 3.0)
        assert original.estimate("late") == 0.0

    @pytest.mark.parametrize("compress", [False, True])
    def test_payload_round_trips(self, compress):
        tokens = [("10.0.0.%d" % (n % 97), n % 5) for n in zipf_tokens(6, total=8_000)]
        summary = feed(ArraySummary(M), tokens)
        data = serialization.dump_bytes(summary, compress=compress)
        loaded = serialization.load_bytes(data)
        assert isinstance(loaded, ArraySummary)
        assert serialization.dump_bytes(loaded, compress=compress) == data
        assert loaded.decrement == summary.decrement
        assert loaded.top_k(len(loaded)) == summary.top_k(len(summary))
        assert serialization.dump(summary)["extra"] == {"decrement": summary.decrement}

    def test_payload_round_trips_inside_a_union(self):
        parts = [feed(ArraySummary(M), zipf_tokens(seed, total=4_000)) for seed in (8, 9)]
        union = DisjointUnion(parts)
        loaded = serialization.loads(serialization.dumps(union))
        assert [type(part) for part in loaded.parts] == [ArraySummary, ArraySummary]
        assert serialization.dumps(loaded) == serialization.dumps(union)
        assert loaded.top_k(len(loaded)) == union.top_k(len(union))


class TestCollisions:
    """Keys that share a fingerprint keep one counter each."""

    @staticmethod
    def _alias(monkeypatch, first, second):
        """Make the codec fingerprint ``second`` exactly like ``first``."""
        real = TokenCodec.fingerprints

        def fingerprints(codec, ids):
            values = real(codec, ids).copy()
            for index, token_id in enumerate(np.asarray(ids).tolist()):
                if codec.item_for(token_id) == second:
                    values[index] = stable_fingerprint(first)
            return values

        monkeypatch.setattr(TokenCodec, "fingerprints", fingerprints)

    def test_forced_collision_inside_one_chunk_counts_apart(self, monkeypatch):
        self._alias(monkeypatch, "a", "b")
        summary = feed(ArraySummary(M), ["a", "b", "a", "c", "b", "a"])
        assert summary.guaranteed_counters() == {"a": 3.0, "b": 2.0, "c": 1.0}
        assert summary.decrement == 0.0

    def test_forced_collision_with_a_stored_key_counts_apart(self, monkeypatch):
        codec = TokenCodec()
        summary = feed(ArraySummary(M), ["a", "a", "c"], codec=codec)
        self._alias(monkeypatch, "a", "b")
        summary.update_batch(codec.encode_chunk(["b", "a"]))
        assert summary.guaranteed_counters() == {"a": 3.0, "b": 1.0, "c": 1.0}
        # The same keys from a fresh codec (a rotation) join their counters.
        summary.update_batch(TokenCodec().encode_chunk(["b", "a", "b"]))
        assert summary.guaranteed_counters() == {"a": 4.0, "b": 3.0, "c": 1.0}

    def test_ints_that_share_a_fingerprint_count_apart(self):
        low, high = -1, 2**64 - 1
        assert stable_fingerprint(low) == stable_fingerprint(high)
        codec = TokenCodec()
        summary = feed(ArraySummary(4), [low, high, low, 5], codec=codec)
        assert summary.counters() == {low: 2.0, high: 1.0, 5: 1.0}
        assert (summary.estimate(low), summary.estimate(high)) == (2.0, 1.0)
        summary.update_batch(codec.encode_chunk([high, high, 7, 8, 9]))
        assert summary.decrement == 1.0 and len(summary) == 4
        assert (summary.estimate(low), summary.estimate(high)) == (2.0, 3.0)
        for compress in (False, True):
            data = serialization.dump_bytes(summary, compress=compress)
            assert serialization.dump_bytes(serialization.load_bytes(data), compress=compress) == data
        merged = ArraySummary.merge([summary, summary.copy()])
        assert (merged.estimate(low), merged.estimate(high)) == (4.0, 6.0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_guarantee_holds_over_many_shared_fingerprints(self, seed):
        """Every int in ``values`` shares its fingerprint with ``v + 2**64``."""
        rng = np.random.default_rng(seed)
        values = rng.zipf(1.3, size=6_000) % 40
        tokens = [int(v) + (2**64 if rng.random() < 0.5 else 0) for v in values]
        summary = feed(ArraySummary(16), tokens, chunk_size=250)
        truth = exact(tokens)
        d = summary.decrement
        for item, count in truth.items():
            estimate = summary.estimate(item)
            if item in summary:
                assert count <= estimate <= count + d
            else:
                assert estimate == 0.0 and count <= d
        for k in range(1, 16):
            assert d <= residual(truth, k) / (16 + 1 - k) + 1e-9


class TestService:
    @pytest.mark.parametrize("window_buckets", [0, 2])
    @pytest.mark.parametrize("wal", [False, True])
    def test_ints_that_share_a_fingerprint_are_served_apart(self, tmp_path, wal, window_buckets):
        """``-1`` and ``2**64 - 1`` share a fingerprint and a shard: every
        ingest is acked, both keys answer exactly, a later ingest is
        unaffected and recovery rebuilds the live state."""
        low, high = -1, 2**64 - 1
        config = ServiceConfig(
            num_counters=M, num_shards=2, k=4, window_buckets=window_buckets,
            wal_dir=str(tmp_path / "wal") if wal else None, fsync="off", audit_rate=0.0,
        )
        truth = collections.Counter()
        with HeavyHittersService(config) as service:
            for step, items in enumerate(([low, high, 5, low], [high, low], [low, high, high])):
                if step and window_buckets:
                    assert service.handle({"op": "advance-window"})["ok"]
                assert service.handle({"op": "ingest", "items": items})["ok"]
                truth.update(items)
            for item, count in truth.items():
                answer = service.handle({"op": "query", "type": "point", "item": item})
                assert answer["estimate"] == count
            top = service.handle({"op": "query", "type": "top-k", "k": 2})["top_k"]
            assert sorted(entry["item"] for entry in top) == [low, high]
            if window_buckets:
                answer = service.handle({"op": "query", "type": "window-top-k", "k": 2, "window": 2})
                assert answer["buckets_merged"] == 2
                assert [(e["item"], e["estimate"]) for e in answer["top_k"]] == [(high, 3.0), (low, 2.0)]
                for item, count in ((low, 2.0), (high, 3.0)):
                    answer = service.handle(
                        {"op": "query", "type": "window-point", "item": item, "window": 2}
                    )
                    assert answer["estimate"] == count
            live = service.sharded.shard_payloads()
            window = (
                [payload for _, payload in service.windowed.bucket_payloads()]
                if window_buckets else None
            )
            if wal:
                service.wal.sync()
        if wal:
            result = recover(tmp_path / "wal")
            assert result.chunks_replayed == 3
            assert [serialization.dump(e) for e in result.estimators] == live
            if window_buckets:
                assert [serialization.dump(e) for _, e in result.window.bucket_states()] == window
            assert (result.estimator.estimate(low), result.estimator.estimate(high)) == (4.0, 4.0)

    def test_recover_rebuilds_shards_bit_identical_to_live_ingest(self, tmp_path):
        """Checkpoint halfway, replay the rest: the shards equal live ingest."""
        config = ServiceConfig(
            num_counters=M, num_shards=3, k=4, window_buckets=2,
            wal_dir=str(tmp_path / "wal"), fsync="off", audit_rate=0.0,
        )
        tokens = [("flow", n % 211) if n % 3 else n for n in zipf_tokens(10, total=12_000)]
        with HeavyHittersService(config) as service:
            for start in range(0, len(tokens), 1_000):
                assert service.handle({"op": "ingest", "items": tokens[start : start + 1_000]})["ok"]
                if start == 6_000:
                    assert service.handle({"op": "checkpoint"})["ok"]
            live = service.sharded.shard_payloads()
            service.wal.sync()
        result = recover(tmp_path / "wal")
        assert result.checkpoint_version == 1 and 0 < result.tokens_replayed < len(tokens)
        assert [type(e) for e in result.estimators] == [ArraySummary] * 3
        assert [serialization.dump(e) for e in result.estimators] == live

    def test_torn_fixture_recovers_into_array_shards_at_one_one(self):
        """The fixture's manifest names ``spacesaving``: recovery ignores
        it and rebuilds the service's one shard summary."""
        result = recover(DATA_DIR / "wal-torn")
        assert result.manifest["algorithm"] == "spacesaving"
        assert all(isinstance(e, ArraySummary) for e in result.estimators)
        assert result.merge.merged_constants == TailGuarantee(a=1.0, b=1.0)
        assert result.estimator.estimate("alpha") == 60.0

    def test_spacesaving_checkpoint_of_an_earlier_build_restores(self, tmp_path):
        """``wal-spacesaving`` was written by a build whose shards were
        SpaceSaving: a checkpoint of ``head``, then a WAL tail holding
        ``tail``.  It restores as SpaceSaving shards that answer within (1, 1),
        and a service resumed on it keeps ingesting."""
        head = [int(v) for v in zipf_stream(num_items=60, alpha=1.2, total=600, seed=4).items]
        tail = [int(v) for v in zipf_stream(num_items=60, alpha=1.2, total=200, seed=5).items]
        truth = exact(head + tail)
        result = recover(DATA_DIR / "wal-spacesaving")
        assert result.checkpoint_version == 1 and result.tokens_replayed == len(tail)
        assert all(isinstance(e, SpaceSaving) for e in result.estimators)
        assert result.merge.merged_constants == TailGuarantee(a=1.0, b=1.0)
        assert max_error(truth, result.estimator) <= residual(truth, 2) / (16 - 2)

        wal = tmp_path / "wal"
        shutil.copytree(DATA_DIR / "wal-spacesaving", wal)
        config = ServiceConfig(num_counters=16, num_shards=2, k=2, wal_dir=str(wal), audit_rate=0.0)
        service, _ = resume_service(config)
        with service:
            assert service.handle({"op": "ingest", "items": tail})["ok"]
            meta = service.handle({"op": "snapshot", "drain": True})
            assert meta["guarantee"] == {"a": 1.0, "b": 1.0, "k": 2, "num_counters": 16}
            truth = exact(head + tail + tail)
            bound = residual(truth, 2) / (16 - 2)
            for item, count in truth.items():
                answer = service.handle({"op": "query", "type": "point", "item": item})
                assert abs(answer["estimate"] - count) <= bound
