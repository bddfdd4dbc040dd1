"""Tests for the sharded heavy-hitters service (repro.service)."""

import collections
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import serialization
from repro.algorithms.space_saving import SpaceSaving
from repro.cli import main
from repro.core.merging import DisjointUnion, merge_summaries
from repro.core.tail_guarantee import TailGuarantee
from repro.engine.codec import TokenCodec
from repro.metrics.error import max_error, residual
from repro.service import snapshots as snapshots_module
from repro.service import (
    HeavyHittersService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ShardedSummarizer,
    SnapshotManager,
    partition_batch,
    serve,
    shard_for,
)
from repro.streams.batched import iter_chunks
from repro.streams.exact import ExactCounter
from repro.streams.generators import drifting_zipf_streams, zipf_stream


class TestShardFor:
    def test_deterministic_and_in_range(self):
        for item in ["a", "b", 17, 3.5, "query term"]:
            shard = shard_for(item, 4)
            assert 0 <= shard < 4
            assert shard == shard_for(item, 4)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_for("a", 0)


class TestPartitionBatch:
    def test_preserves_multiset(self, encode):
        items = ["a", "b", "a", "c", "d", "a"]
        parts = partition_batch(encode(items), 3)
        rebuilt = collections.Counter()
        for shard_id, part in parts.items():
            assert part.weights is None
            assert len(part)  # shards that receive nothing are omitted
            for item in part:
                assert shard_for(item, 3) == shard_id
            rebuilt.update(part.items())
        assert rebuilt == collections.Counter(items)

    def test_weighted_batches_stay_parallel(self, encode):
        parts = partition_batch(encode(["a", "b", "a", "c"], [1.0, 2.0, 3.0, 4.0]), 2)
        totals = collections.defaultdict(float)
        for part in parts.values():
            for item, weight in zip(part.items(), part.weights.tolist(), strict=True):
                totals[item] += weight
        assert totals == {"a": 4.0, "b": 2.0, "c": 4.0}

    def test_single_shard_short_circuits(self, encode):
        chunk = encode(["x", "y"])
        parts = partition_batch(chunk, 1)
        assert list(parts) == [0]
        assert parts[0] is chunk  # no copy
        assert partition_batch(encode([]), 1) == {}
        assert partition_batch(encode([]), 3) == {}


class TestShardedSummarizer:
    def test_totals_match_exact_counts(self, zipf_medium, encode):
        with ShardedSummarizer(ExactCounter, num_shards=4) as sharded:
            for chunk in iter_chunks(zipf_medium.items, 4096):
                sharded.ingest(encode(chunk))
            sharded.flush()
            merged = collections.Counter()
            for summary in sharded.shard_summaries():
                for item, count in summary.counters().items():
                    merged[item] += count
        assert merged == collections.Counter(zipf_medium.items)

    def test_each_shard_owns_its_items(self, zipf_medium, encode):
        with ShardedSummarizer(ExactCounter, num_shards=4) as sharded:
            sharded.ingest(encode(zipf_medium.items))
            for shard_id, summary in enumerate(sharded.shard_summaries()):
                for item in summary.counters():
                    assert shard_for(item, 4) == shard_id

    def test_concurrent_producers(self, zipf_medium):
        with ShardedSummarizer(ExactCounter, num_shards=4, queue_depth=8) as sharded:
            halves = [zipf_medium.items[0::2], zipf_medium.items[1::2]]

            def produce(tokens):
                codec = TokenCodec()  # interning is not thread-safe
                for chunk in iter_chunks(tokens, 1024):
                    sharded.ingest(codec.encode_chunk(chunk))

            threads = [
                threading.Thread(target=produce, args=(half,)) for half in halves
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            sharded.flush()
            assert sharded.stream_length == float(len(zipf_medium.items))
            assert sharded.tokens_enqueued == len(zipf_medium.items)

    def test_weighted_ingest(self, encode):
        with ShardedSummarizer(ExactCounter, num_shards=2) as sharded:
            sharded.ingest(encode(["a", "b", "a"], [2.0, 3.0, 1.0]))
            sharded.flush()
            assert sharded.stream_length == 6.0
            merged = collections.Counter()
            for summary in sharded.shard_summaries():
                merged.update(summary.counters())
            assert merged == {"a": 3.0, "b": 3.0}

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_plain_sequences_rejected_before_any_shard_changes(self, backend, encode):
        with ShardedSummarizer(ExactCounter, num_shards=2, backend=backend) as sharded:
            sharded.ingest(encode(["a", "b"]))
            for plain in (["a", "b", "c"], np.array([1, 2, 3]), ("a",)):
                with pytest.raises(TypeError, match="TokenCodec.encode_chunk"):
                    sharded.ingest(plain)
            sharded.flush()
            assert sharded.stream_length == 2.0
            assert sharded.tokens_enqueued == 2
            assert sum(row["tokens_applied"] for row in sharded.queue_stats()) == 2

    def test_worker_errors_surface_on_flush(self, encode):
        class Exploding(ExactCounter):
            def update_batch(self, items, weights=None):
                raise RuntimeError("boom")

        with ShardedSummarizer(Exploding, num_shards=2) as sharded:
            sharded.ingest(encode(["a", "b"]))
            with pytest.raises(RuntimeError, match="shard"):
                sharded.flush()

    def test_worker_error_does_not_poison_the_service(self, encode):
        class ExplodesOnce(ExactCounter):
            def update_batch(self, items, weights=None):
                if "bad" in items:
                    raise RuntimeError("boom")
                super().update_batch(items, weights)

        with ShardedSummarizer(ExplodesOnce, num_shards=1) as sharded:
            sharded.ingest(encode(["bad"]))
            with pytest.raises(RuntimeError, match="dropped"):
                sharded.flush()
            # The failed batch is gone, but the service keeps working.
            sharded.ingest(encode(["good", "good"]))
            sharded.flush()
            assert sharded.stream_length == 2.0
            counters = sharded.shard_summaries()[0].counters()
            assert counters == {"good": 2.0}

    def test_ingest_requires_started(self, encode):
        sharded = ShardedSummarizer(ExactCounter, num_shards=2)
        with pytest.raises(RuntimeError):
            sharded.ingest(encode(["a"]))
        sharded.start()
        sharded.close()
        with pytest.raises(RuntimeError):
            sharded.ingest(encode(["a"]))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ShardedSummarizer(ExactCounter, num_shards=0)
        with pytest.raises(ValueError):
            ShardedSummarizer(ExactCounter, num_shards=1, queue_depth=0)


@pytest.fixture()
def sharded_zipf(zipf_medium, encode):
    """A 4-shard SpaceSaving summarizer pre-loaded with zipf_medium."""
    with ShardedSummarizer(
        lambda: SpaceSaving(num_counters=400), num_shards=4
    ) as sharded:
        for chunk in iter_chunks(zipf_medium.items, 4096):
            sharded.ingest(encode(chunk))
        sharded.flush()
        yield sharded


class TestSnapshotManager:
    def test_versions_increment(self, sharded_zipf):
        manager = SnapshotManager(sharded_zipf, k=10)
        assert manager.latest is None
        first = manager.refresh()
        second = manager.refresh()
        assert (first.version, second.version) == (1, 2)
        assert manager.latest.version == 2

    def test_latest_or_refresh_builds_first(self, sharded_zipf):
        manager = SnapshotManager(sharded_zipf, k=10)
        snapshot = manager.latest_or_refresh()
        assert snapshot.version == 1
        assert manager.latest_or_refresh() is snapshot

    def test_snapshot_carries_merged_guarantee(self, sharded_zipf, zipf_medium):
        """The union of key-disjoint shard copies keeps the shards' (1, 1)."""
        manager = SnapshotManager(sharded_zipf, k=10)
        snapshot = manager.refresh(drain=True)
        assert (snapshot.constants.a, snapshot.constants.b) == (1.0, 1.0)
        assert snapshot.num_shards == 4
        assert snapshot.estimator.num_counters == 400
        assert snapshot.stream_length == float(len(zipf_medium.items))
        frequencies = zipf_medium.frequencies()
        check = snapshot.check(frequencies)
        assert check.holds, check.description
        assert check.bound == residual(frequencies, 10) / (400 - 10)
        # A point answer is the owner shard's count.
        shards = sharded_zipf.shard_summaries()
        for item in frequencies:
            assert snapshot.estimate(item) == shards[shard_for(item, 4)].estimate(item)

    def test_heavy_hitters_threshold_uses_true_weight(self, sharded_zipf, zipf_medium):
        manager = SnapshotManager(sharded_zipf, k=10)
        snapshot = manager.refresh()
        phi = 0.05
        threshold = phi * len(zipf_medium.items)
        reported = dict(snapshot.heavy_hitters(phi))
        for item, estimate in reported.items():
            assert estimate > threshold
        exact = zipf_medium.frequencies()
        bound = snapshot.bound(exact)
        for item, count in exact.items():
            if count > threshold + bound:
                assert item in reported

    def test_persistence_round_trip(self, sharded_zipf, zipf_medium, tmp_path):
        manager = SnapshotManager(
            sharded_zipf, k=10, directory=tmp_path, compress=True
        )
        snapshot = manager.refresh()
        assert snapshot.path is not None and snapshot.path.exists()
        assert snapshot.path.suffix == ".gz"
        assert snapshot.wire.compressed
        assert snapshot.wire.wire_bytes < snapshot.wire.json_bytes
        frequencies = zipf_medium.frequencies()
        assert (snapshot.constants.a, snapshot.constants.b) == (1.0, 1.0)
        assert snapshot.check(frequencies).holds
        # The file holds the snapshot's union: it answers every point and
        # top-k query as the served snapshot does, under the same (1, 1).
        reloaded = SnapshotManager.load(snapshot.path)
        assert isinstance(reloaded, DisjointUnion)
        assert reloaded.counters() == snapshot.estimator.counters()
        assert reloaded.per_item_errors() == snapshot.estimator.per_item_errors()
        for item in frequencies:
            assert reloaded.estimate(item) == snapshot.estimate(item)
        assert reloaded.top_k(len(reloaded)) == snapshot.top_k(len(reloaded))
        assert max_error(frequencies, reloaded) <= snapshot.bound(frequencies)

    def test_periodic_refresh(self, sharded_zipf):
        manager = SnapshotManager(sharded_zipf, k=10)
        manager.start(interval=0.01)
        try:
            deadline = time.monotonic() + 5.0
            while manager.latest is None and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            manager.stop()
        assert manager.latest is not None
        with pytest.raises(ValueError):
            manager.start(interval=0.0)

    def test_rejects_bad_k(self, sharded_zipf):
        with pytest.raises(ValueError):
            SnapshotManager(sharded_zipf, k=0)

    def test_refresh_copies_and_combines_once(self, sharded_zipf, monkeypatch):
        """The traced benchmark times a refresh's ``snapshot_copy`` and
        ``snapshot_merge`` stages by wrapping these two names; each must
        run exactly once per refresh."""
        calls = collections.Counter()
        copy = ShardedSummarizer.snapshot_summaries
        merge = snapshots_module.merge_summaries

        def counting_copy(self):
            calls["copy"] += 1
            return copy(self)

        def counting_merge(*args, **kwargs):
            calls["merge"] += 1
            return merge(*args, **kwargs)

        monkeypatch.setattr(ShardedSummarizer, "snapshot_summaries", counting_copy)
        monkeypatch.setattr(snapshots_module, "merge_summaries", counting_merge)
        manager = SnapshotManager(sharded_zipf, k=10)
        manager.refresh()
        assert calls == {"copy": 1, "merge": 1}
        manager.refresh(drain=True)
        manager.latest_or_refresh()
        assert calls == {"copy": 2, "merge": 2}


@pytest.fixture()
def thread_flows(zipf_medium, encode):
    """A 2-shard thread-backend summarizer holding flow 5-tuples."""
    flows = [("10.0.0.1", "10.0.0.2", int(item), 443, 6) for item in zipf_medium.items]
    with ShardedSummarizer(
        lambda: SpaceSaving(num_counters=400), num_shards=2, backend="thread"
    ) as sharded:
        for chunk in iter_chunks(flows, 4096):
            sharded.ingest(encode(chunk))
        sharded.flush()
        yield sharded


def _refuse(*_args, **_kwargs):
    raise AssertionError("the snapshot path must not serialise")


class TestSnapshotCopies:
    def test_snapshot_path_never_serialises(self, thread_flows, zipf_medium, monkeypatch):
        """Snapshots copy shards structurally; the snapshot's shard copies
        still serialise byte-identically to dump/load copies, and their
        union answers as the union of those."""
        live = thread_flows.shard_summaries()
        expected_copies = [serialization.dumps(shard) for shard in live]
        reference = merge_summaries(
            [serialization.load(serialization.dump(shard)) for shard in live],
            k=10,
            make_estimator=thread_flows.make_estimator,
            disjoint=True,
        )
        with monkeypatch.context() as patched:
            patched.setattr(serialization, "dump", _refuse)
            patched.setattr(serialization, "load", _refuse)
            copies = thread_flows.snapshot_summaries()
            snapshot = SnapshotManager(thread_flows, k=10).refresh()
        assert [serialization.dumps(copy) for copy in copies] == expected_copies
        assert all(copy is not shard for copy, shard in zip(copies, live))
        parts = snapshot.estimator.parts
        assert [serialization.dumps(part) for part in parts] == expected_copies
        assert all(part is not shard for part, shard in zip(parts, live))
        assert snapshot.estimator.counters() == reference.estimator.counters()
        assert snapshot.top_k(len(snapshot.estimator)) == reference.estimator.top_k(
            len(reference.estimator)
        )
        assert snapshot.constants == reference.merged_constants == TailGuarantee(1.0, 1.0)
        exact = collections.Counter(
            ("10.0.0.1", "10.0.0.2", int(item), 443, 6) for item in zipf_medium.items
        )
        assert snapshot.check(exact).holds

    def test_checkpoint_payloads_are_encoded_outside_the_shard_locks(
        self, thread_flows, monkeypatch
    ):
        expected = [serialization.dump(shard) for shard in thread_flows.shard_summaries()]
        shards = thread_flows._backend.shards
        dump = serialization.dump

        def unlocked_dump(summary):
            assert not any(shard.lock.locked() for shard in shards)
            return dump(summary)

        monkeypatch.setattr(serialization, "dump", unlocked_dump)
        assert thread_flows.shard_payloads() == expected


class TestSnapshotRanking:
    @pytest.fixture()
    def snapshot(self, thread_flows):
        return SnapshotManager(thread_flows, k=10).refresh()

    def test_top_k_matches_the_merged_estimator(self, snapshot):
        estimator = snapshot.estimator
        size = len(estimator)
        for k in (0, 1, 10, size, size + 5):
            assert snapshot.top_k(k) == estimator.top_k(k)

    def test_heavy_hitters_match_the_merged_ranking(self, snapshot):
        for phi in (0.001, 0.01, 0.1):
            threshold = phi * snapshot.stream_length
            expected = [
                (item, count)
                for item, count in snapshot.estimator.top_k(len(snapshot.estimator))
                if count > threshold
            ]
            assert snapshot.heavy_hitters(phi) == expected

    def test_ranking_is_sorted_once_per_snapshot(self, snapshot, monkeypatch):
        estimator = snapshot.estimator
        calls = []
        rank = estimator.top_k

        def counting_top_k(k):
            calls.append(k)
            return rank(k)

        monkeypatch.setattr(estimator, "top_k", counting_top_k)
        first = snapshot.top_k(5)
        snapshot.top_k(50)
        snapshot.heavy_hitters(0.01)
        first.clear()  # callers own the lists they receive
        assert snapshot.top_k(5) == rank(5)
        assert calls == [len(estimator)]


class TestHeavyHittersServiceHandle:
    @pytest.fixture()
    def service(self):
        config = ServiceConfig(
            num_counters=200, num_shards=2, k=5, window_buckets=3
        )
        with HeavyHittersService(config) as service:
            yield service

    def test_ping(self, service):
        assert service.handle({"op": "ping"}) == {
            "ok": True,
            "pong": True,
            "protocol": 4,
            "binary": True,
            "tracing": True,
            "audit": True,
        }

    def test_unknown_op_and_bad_request(self, service):
        assert not service.handle({"op": "nope"})["ok"]
        assert not service.handle(["not", "a", "dict"])["ok"]
        assert not service.handle({"op": "ingest", "items": "abc"})["ok"]
        assert not service.handle(
            {"op": "ingest", "items": ["a"], "weights": [1.0, 2.0]}
        )["ok"]

    def test_unserialisable_items_rejected_at_ingest(self, service):
        """Tokens v2 cannot carry must fail now, not poison snapshots later."""
        for bad_item in (["nested"], {"d": 1}, float("nan")):
            response = service.handle({"op": "ingest", "items": ["ok", bad_item]})
            assert not response["ok"], bad_item
        service.handle({"op": "ingest", "items": ["ok"] * 3})
        meta = service.handle({"op": "snapshot"})
        assert meta["ok"] and meta["stream_length"] == 3.0

    def test_structured_tokens_accepted_at_ingest(self, service):
        """Wire format v2 carries bools/None/tuples through to snapshots."""
        tagged = [
            serialization.encode_item_key(item)
            for item in (True, None, ("10.0.0.1", 443), ("10.0.0.1", 443))
        ]
        response = service.handle(
            {"op": "ingest", "items": tagged, "encoding": "tagged"}
        )
        assert response["ok"] and response["ingested"] == 4
        meta = service.handle({"op": "snapshot"})
        assert meta["ok"] and meta["stream_length"] == 4.0
        point = service.handle(
            {
                "op": "query",
                "type": "point",
                "item": serialization.encode_item_key(("10.0.0.1", 443)),
                "item_encoding": "tagged",
            }
        )
        assert point["ok"] and point["estimate"] == 2.0
        assert point["item"] == serialization.encode_item_key(("10.0.0.1", 443))
        assert point["item_tagged"] is True

    def test_negative_weight_fails_synchronously_without_poisoning(self, service):
        bad = service.handle(
            {"op": "ingest", "items": ["a", "b"], "weights": [1.0, -1.0]}
        )
        assert not bad["ok"] and "negative" in bad["error"]
        good = service.handle({"op": "ingest", "items": ["a"] * 4})
        assert good["ok"]
        meta = service.handle({"op": "snapshot"})
        assert meta["ok"] and meta["stream_length"] == 4.0

    def test_ingest_snapshot_query_cycle(self, service):
        response = service.handle({"op": "ingest", "items": ["a"] * 30 + ["b"] * 10})
        assert response["ok"] and response["ingested"] == 40
        meta = service.handle({"op": "snapshot"})
        assert meta["ok"] and meta["version"] == 1
        assert meta["stream_length"] == 40.0
        assert meta["guarantee"] == {"a": 1.0, "b": 1.0, "k": 5, "num_counters": 200}
        point = service.handle({"op": "query", "type": "point", "item": "a"})
        assert point["estimate"] == 30.0
        top = service.handle({"op": "query", "type": "top-k", "k": 1})
        assert top["top_k"][0] == {"item": "a", "estimate": 30.0}
        hh = service.handle({"op": "query", "type": "heavy-hitters", "phi": 0.5})
        assert [entry["item"] for entry in hh["heavy_hitters"]] == ["a"]

    def test_window_ops(self, service):
        service.handle({"op": "ingest", "items": ["old"] * 20})
        assert service.handle({"op": "advance-window"})["bucket"] == 1
        service.handle({"op": "ingest", "items": ["new"] * 5})
        one = service.handle(
            {"op": "query", "type": "window-point", "item": "old", "window": 1}
        )
        assert one["estimate"] == 0.0
        both = service.handle(
            {"op": "query", "type": "window-point", "item": "old", "window": 2}
        )
        assert both["estimate"] == 20.0
        top = service.handle({"op": "query", "type": "window-top-k", "k": 1})
        assert top["top_k"][0]["item"] == "old"

    def test_stats(self, service):
        service.handle({"op": "ingest", "items": ["a", "b", "c"]})
        service.handle({"op": "snapshot"})
        stats = service.handle({"op": "stats"})
        assert stats["num_shards"] == 2
        assert stats["tokens_enqueued"] == 3
        assert stats["snapshot_version"] == 1
        assert stats["window"]["current_bucket"] == 0

    def test_windowless_service_rejects_window_ops(self):
        config = ServiceConfig(num_counters=100, num_shards=1)
        with HeavyHittersService(config) as service:
            assert not service.handle({"op": "advance-window"})["ok"]
            assert not service.handle(
                {"op": "query", "type": "window-top-k", "k": 3}
            )["ok"]

    def test_unknown_query_type(self, service):
        assert not service.handle({"op": "query", "type": "median"})["ok"]


@pytest.fixture()
def running_server():
    """A live service on an ephemeral port, torn down after the test."""
    config = ServiceConfig(
        num_counters=2_000,
        num_shards=4,
        k=20,
        window_buckets=4,
    )
    server = serve(config, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)


class TestServiceEndToEnd:
    """The acceptance scenario: concurrent ingest, certified answers."""

    def test_service_answers_within_merged_bound(self, running_server):
        port = running_server.port
        stream = zipf_stream(num_items=20_000, alpha=1.1, total=130_000, seed=7)
        assert len(stream.items) >= 100_000
        exact = collections.Counter(stream.items)

        # Concurrent ingestion: two client connections push interleaved
        # halves while four shard workers drain their queues.
        def produce(tokens):
            with ServiceClient(port=port) as producer:
                for chunk in iter_chunks(tokens, 8_192):
                    producer.ingest(chunk)

        threads = [
            threading.Thread(target=produce, args=(stream.items[offset::2],))
            for offset in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        with ServiceClient(port=port) as client:
            meta = client.snapshot(drain=True)
            assert meta["stream_length"] == float(len(stream.items))
            shard_lengths = meta["shard_lengths"]
            assert len(shard_lengths) == 4
            assert all(length > 0 for length in shard_lengths)

            # Top-k answers from the snapshot's owner shards stay within
            # the shards' own (A, B) = (1, 1) tail bound of the exact counts.
            guarantee = meta["guarantee"]
            assert (guarantee["a"], guarantee["b"]) == (1.0, 1.0)
            k = guarantee["k"]
            bound = (
                guarantee["a"]
                * residual(exact, k)
                / (guarantee["num_counters"] - guarantee["b"] * k)
            )
            answers = client.top_k(k)
            assert len(answers) == k
            for item, estimate in answers:
                assert abs(estimate - exact.get(item, 0)) <= bound + 1e-9
            for item, count in exact.most_common(50):
                assert abs(client.point(item)["estimate"] - count) <= bound + 1e-9
            top_true = {item for item, _ in exact.most_common(10)}
            top_served = {item for item, _ in answers}
            assert top_true <= top_served

            # Sliding windows: three fresh buckets with a drifting hot
            # set; a window query over the last 3 buckets must match an
            # exact recount of exactly those buckets, within its bound.
            buckets = drifting_zipf_streams(
                3_000, alpha=1.2, tokens_per_bucket=8_000, num_buckets=3, drift=50,
                seed=11,
            )
            window_exact = collections.Counter()
            for bucket_stream in buckets:
                client.advance_window()
                for chunk in iter_chunks(bucket_stream.items, 8_192):
                    client.ingest(chunk)
                window_exact.update(bucket_stream.items)

            response = client.call(
                {"op": "query", "type": "window-top-k", "k": k, "window": 3}
            )
            assert response["buckets_merged"] == 3
            assert response["stream_length"] == float(sum(window_exact.values()))
            # Buckets overlap in key space, so the window keeps Theorem 11.
            window_guarantee = response["guarantee"]
            assert (window_guarantee["a"], window_guarantee["b"]) == (3.0, 2.0)
            window_bound = (
                window_guarantee["a"]
                * residual(window_exact, window_guarantee["k"])
                / (
                    window_guarantee["num_counters"]
                    - window_guarantee["b"] * window_guarantee["k"]
                )
            )
            for entry in response["top_k"]:
                assert (
                    abs(entry["estimate"] - window_exact.get(entry["item"], 0))
                    <= window_bound + 1e-9
                )

            # The bulk-phase tokens are outside the queried window.
            heaviest_overall = exact.most_common(1)[0][0]
            window_point = client.window_point(heaviest_overall, window=3)
            assert (
                window_point["estimate"]
                <= window_exact.get(heaviest_overall, 0) + window_bound
            )

    def test_nan_weight_rejected_over_the_wire(self, running_server):
        """json.loads accepts NaN, so the service must reject it itself."""
        with ServiceClient(port=running_server.port) as client:
            with pytest.raises(ServiceError, match="finite"):
                client.ingest(["a"], [float("nan")])
            assert client.ping()

    @pytest.mark.parametrize("query_type", ["top-k", "window-top-k"])
    def test_negative_k_rejected_over_the_wire(self, running_server, query_type):
        with ServiceClient(port=running_server.port) as client:
            client.ingest(["a", "b", "b"])
            client.snapshot()
            with pytest.raises(ServiceError, match="k must be >= 0"):
                client.call({"op": "query", "type": query_type, "k": -1})
            empty = client.call({"op": "query", "type": query_type, "k": 0})
            assert empty["top_k"] == []

    def test_negative_k_rejected_by_the_library(self):
        summary = SpaceSaving(num_counters=4)
        summary.update_many(["a", "b", "b"])
        for estimator in (summary, DisjointUnion([summary])):
            with pytest.raises(ValueError, match="k must be >= 0"):
                estimator.top_k(-1)
            assert estimator.top_k(0) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["top-k", "{workload}", "--k", "-1"],
            ["recover", "--wal-dir", "{wal}", "--top-k", "-1"],
        ],
        ids=["top-k", "recover"],
    )
    def test_negative_k_rejected_by_the_cli(self, tmp_path, argv):
        """The CLI exits with one error line instead of printing every
        entry but the last."""
        workload = tmp_path / "workload.txt"
        workload.write_text("a\nb\nb\n", encoding="utf-8")
        wal_dir = Path(__file__).parent / "data" / "wal-torn"
        argv = [arg.format(workload=workload, wal=wal_dir) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert "must be >= 0, got -1" in message and "\n" not in message

    def test_bind_failure_does_not_leak_the_service(self, running_server):
        """serve() on a busy port must close the service it started."""
        host, port = running_server.server_address[:2]
        config = ServiceConfig(num_counters=50, num_shards=2)
        before = threading.active_count()
        with pytest.raises(OSError):
            serve(config, host=host, port=port)
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before

    def test_protocol_errors_and_shutdown(self, running_server):
        port = running_server.port
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceError):
                client.call({"op": "no-such-op"})
            assert client.ping()
        with ServiceClient(port=port) as client:
            client.shutdown()
        assert running_server.service.shutdown_requested.is_set()


class TestPromptShutdown:
    """Both front ends leave ``serve_forever`` as soon as they are shut
    down, instead of waiting out socketserver's 0.5 s poll."""

    BUDGET_SECONDS = 0.1

    def test_tcp_server_teardown_is_prompt(self):
        server = serve(ServiceConfig(num_shards=2), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServiceClient(port=server.port) as client:
            assert client.ping()  # the loop is serving
            started = time.perf_counter()
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(timeout=5)
            elapsed = time.perf_counter() - started
        assert not thread.is_alive()
        assert elapsed < self.BUDGET_SECONDS

    def test_http_server_teardown_is_prompt(self):
        from urllib.request import urlopen

        from repro.service.http import serve_http

        server = serve_http(port=0)
        with urlopen(f"http://127.0.0.1:{server.port}/healthz", timeout=5) as reply:
            assert reply.status == 200
        started = time.perf_counter()
        server.close()
        assert time.perf_counter() - started < self.BUDGET_SECONDS

    def test_shutdown_op_stops_the_loop_promptly(self):
        server = serve(ServiceConfig(num_shards=2), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(port=server.port) as client:
                started = time.perf_counter()
                client.shutdown()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert time.perf_counter() - started < self.BUDGET_SECONDS
        finally:
            server.server_close()
            server.service.close()
