"""Differential-oracle property tests: every ingest path vs an exact oracle.

Randomised (weighted) streams are pushed through each ingest surface the
library exposes:

* scalar ``update`` (one call per token),
* plain ``update_batch`` (per-chunk aggregated lists),
* columnar ``update_batch`` over :class:`~repro.engine.codec.EncodedChunk`,
* chunks round-tripped through the tagged wire format
  (``dump_chunk_bytes`` / ``load_chunk_bytes``),
* sharded ingestion merged back per Theorem 11,
* a WAL write + crash-recovery replay,
* and the service's own ingest and snapshot answers (owner-shard point
  and top-k queries over the union of the shard copies).

The differential contracts:

1. the columnar paths (in-process :class:`EncodedChunk` vs chunks
   round-tripped through the tagged wire format) end in **bit-identical**
   summary state -- same counters, same per-item errors, same serialised
   payload -- because the consumer codec reconstructs the producer's id
   order exactly;
2. sketches (CountMin / CountSketch) are bit-identical across *all* paths,
   scalar included (their updates commute exactly);
3. plain-list batching and scalar ingestion aggregate in a different
   order (per-chunk dict order vs global id order), so for counter
   summaries they may tie-break evictions differently -- but every path
   reports identical bookkeeping (stream length, items processed) and
   stays within its k-tail bound of an exact ``collections.Counter``
   oracle: ``(A, B)`` for single summaries, the merged ``(3A, A+B)`` of
   Theorem 11 for sharded-then-merged;
4. the service's snapshot answers come from the owner shard of each key
   (hash partitions are key-disjoint), so they keep the shards' own
   ``(1, 1)`` bound ``F1_res(k) / (m - k)`` on the *global* residual, and
   a top-k answer omits no key whose true count exceeds its smallest
   returned estimate plus that bound;
5. a persisted snapshot file and a crash recovery hold the same union of
   shards, so they answer exactly as the served snapshot and keep
   ``(1, 1)``.
"""

import collections
import functools
import random

import pytest

from repro import serialization
from repro.algorithms.array_summary import ArraySummary
from repro.algorithms.frequent import Frequent
from repro.algorithms.frequent_real import FrequentR
from repro.algorithms.space_saving import SpaceSaving, SpaceSavingHeap
from repro.algorithms.space_saving_real import SpaceSavingR
from repro.core.merging import merge_summaries
from repro.core.tail_guarantee import TailGuarantee
from repro.engine.codec import TokenCodec
from repro.metrics.error import max_error, residual
from repro.service import (
    HeavyHittersService,
    ServiceConfig,
    ShardedSummarizer,
    SnapshotManager,
    recover,
)
from repro.service.wal import WriteAheadLog
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.streams.adversarial import lossy_hostile_stream, lower_bound_streams
from repro.streams.batched import iter_chunks
from repro.streams.generators import drifting_zipf_streams, zipf_stream

NUM_COUNTERS = 128
CHUNK_SIZE = 700
K = 8


def random_stream(seed: int, length: int = 12_000, weighted: bool = False):
    """A skewed random stream over a mixed-type token space."""
    rng = random.Random(seed)
    universe = (
        [f"term-{index}" for index in range(400)]
        + list(range(200))
        + [("10.0.0.%d" % index, 443) for index in range(40)]
    )
    # Zipf-ish skew: earlier universe entries are far more likely.
    weights = [1.0 / (rank + 1) ** 1.2 for rank in range(len(universe))]
    items = rng.choices(universe, weights=weights, k=length)
    if not weighted:
        return [(item, 1.0) for item in items]
    return [(item, float(rng.randint(1, 9))) for item in items]


def oracle_of(pairs):
    oracle = collections.Counter()
    for item, weight in pairs:
        oracle[item] += weight
    return dict(oracle)


def within_tail_bound(estimator, oracle, constants=None, k=K):
    """Definition 2: max |estimate - truth| <= A * F1_res(k) / (m - Bk)."""
    constants = (
        TailGuarantee.for_algorithm(estimator) if constants is None else constants
    )
    bound = constants.bound(residual(oracle, k), estimator.num_counters, k)
    return max_error(oracle, estimator) <= bound + 1e-9


COUNTER_FACTORIES = {
    "array": lambda: ArraySummary(num_counters=NUM_COUNTERS),
    "frequent": lambda: Frequent(num_counters=NUM_COUNTERS),
    "spacesaving": lambda: SpaceSaving(num_counters=NUM_COUNTERS),
    "spacesaving_heap": lambda: SpaceSavingHeap(num_counters=NUM_COUNTERS),
}
WEIGHTED_FACTORIES = {
    "array": lambda: ArraySummary(num_counters=NUM_COUNTERS),
    "frequent_r": lambda: FrequentR(num_counters=NUM_COUNTERS),
    "spacesaving_r": lambda: SpaceSavingR(num_counters=NUM_COUNTERS),
}


def feed_scalar(factory, pairs):
    summary = factory()
    for item, weight in pairs:
        summary.update(item, weight)
    return summary


def feed_batched(factory, pairs, weighted):
    summary = factory()
    for chunk in iter_chunks(pairs, CHUNK_SIZE):
        items = [item for item, _ in chunk]
        if weighted:
            summary.update_batch(items, [weight for _, weight in chunk])
        else:
            summary.update_batch(items)
    return summary


def feed_columnar(factory, pairs, weighted, codec=None):
    summary = factory()
    codec = TokenCodec() if codec is None else codec
    for chunk in iter_chunks(pairs, CHUNK_SIZE):
        items = [item for item, _ in chunk]
        weights = [weight for _, weight in chunk] if weighted else None
        summary.update_batch(codec.encode_chunk(items, weights))
    return summary


def feed_wire_round_trip(factory, pairs, weighted):
    """Chunks cross the tagged wire format before reaching the summary."""
    summary = factory()
    producer = TokenCodec()
    consumer = TokenCodec()
    for chunk in iter_chunks(pairs, CHUNK_SIZE):
        items = [item for item, _ in chunk]
        weights = [weight for _, weight in chunk] if weighted else None
        data = serialization.dump_chunk_bytes(producer.encode_chunk(items, weights))
        summary.update_batch(serialization.load_chunk_bytes(data, consumer))
    return summary


def feed_sharded_merged(factory, pairs, weighted, num_shards=4):
    codec = TokenCodec()
    with ShardedSummarizer(factory, num_shards=num_shards) as sharded:
        for chunk in iter_chunks(pairs, CHUNK_SIZE):
            items = [item for item, _ in chunk]
            weights = [weight for _, weight in chunk] if weighted else None
            sharded.ingest(codec.encode_chunk(items, weights))
        sharded.flush()
        copies = sharded.snapshot_summaries()
    return merge_summaries(copies, k=K, make_estimator=factory)


@pytest.mark.parametrize("seed", [11, 23, 47])
@pytest.mark.parametrize("name", sorted(COUNTER_FACTORIES))
class TestUnitWeightOracle:
    def test_chunk_paths_bit_identical_and_within_bound(self, name, seed):
        factory = COUNTER_FACTORIES[name]
        pairs = random_stream(seed)
        oracle = oracle_of(pairs)
        batched = feed_batched(factory, pairs, weighted=False)
        columnar = feed_columnar(factory, pairs, weighted=False)
        wire = feed_wire_round_trip(factory, pairs, weighted=False)
        # 1. In-process columnar and the tagged-wire round trip are the
        #    same computation: the summaries serialise to the same bytes.
        assert serialization.dumps(wire) == serialization.dumps(columnar)
        # 2. Plain-list batching aggregates in per-chunk dict order rather
        #    than id order, so its state may tie-break differently -- but
        #    its bookkeeping is identical and its bound holds equally.
        assert batched.stream_length == columnar.stream_length
        assert batched.items_processed == columnar.items_processed
        assert within_tail_bound(batched, oracle)
        assert within_tail_bound(columnar, oracle)
        # 3. The scalar path aggregates differently again (per token, not
        #    per chunk) but obeys the same bound.
        assert within_tail_bound(feed_scalar(factory, pairs), oracle)

    def test_sharded_then_merged_within_merged_bound(self, name, seed):
        factory = COUNTER_FACTORIES[name]
        pairs = random_stream(seed)
        oracle = oracle_of(pairs)
        merged = feed_sharded_merged(factory, pairs, weighted=False)
        check = merged.check(oracle)
        assert check.holds, check.description

    def test_estimates_identical_across_columnar_paths(self, name, seed):
        """Point estimates agree item-for-item, not just payload-for-payload."""
        factory = COUNTER_FACTORIES[name]
        pairs = random_stream(seed, length=4_000)
        wire = feed_wire_round_trip(factory, pairs, weighted=False)
        columnar = feed_columnar(factory, pairs, weighted=False)
        for item in list(oracle_of(pairs))[:50]:
            assert wire.estimate(item) == columnar.estimate(item)


@pytest.mark.parametrize("seed", [5, 19])
@pytest.mark.parametrize("name", sorted(WEIGHTED_FACTORIES))
class TestWeightedOracle:
    def test_weighted_paths_agree_and_hold_bound(self, name, seed):
        factory = WEIGHTED_FACTORIES[name]
        pairs = random_stream(seed, weighted=True)
        oracle = oracle_of(pairs)
        batched = feed_batched(factory, pairs, weighted=True)
        columnar = feed_columnar(factory, pairs, weighted=True)
        wire = feed_wire_round_trip(factory, pairs, weighted=True)
        assert serialization.dumps(wire) == serialization.dumps(columnar)
        assert batched.stream_length == columnar.stream_length
        assert batched.items_processed == columnar.items_processed
        assert within_tail_bound(batched, oracle)
        assert within_tail_bound(columnar, oracle)
        assert within_tail_bound(feed_scalar(factory, pairs), oracle)

    def test_weighted_sharded_merged(self, name, seed):
        factory = WEIGHTED_FACTORIES[name]
        pairs = random_stream(seed, weighted=True)
        oracle = oracle_of(pairs)
        merged = feed_sharded_merged(factory, pairs, weighted=True)
        check = merged.check(oracle)
        assert check.holds, check.description


@pytest.mark.parametrize("seed", [3, 31])
class TestSketchOracle:
    """Sketch updates commute exactly: all paths are bit-identical."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: CountMinSketch(width=512, depth=4, seed=9),
            lambda: CountSketch(width=512, depth=4, seed=9),
        ],
        ids=["countmin", "countsketch"],
    )
    def test_all_paths_bit_identical(self, factory, seed):
        pairs = random_stream(seed, length=6_000)
        scalar = feed_scalar(factory, pairs)
        batched = feed_batched(factory, pairs, weighted=False)
        columnar = feed_columnar(factory, pairs, weighted=False)
        assert (scalar._table == batched._table).all()
        assert (scalar._table == columnar._table).all()
        oracle = oracle_of(pairs)
        for item in list(oracle)[:30]:
            assert scalar.estimate(item) == columnar.estimate(item)


def feed_backend(factory, pairs, weighted, backend, num_shards=4):
    """Columnar sharded ingest on the given backend; per-shard copies.

    Both backends are fed the same :class:`EncodedChunk` sequence from a
    fresh producer codec -- the thread backend partitions it in-process;
    the process backend frames it as a chunk record, pipes it to every
    worker, and each worker re-decodes against its own codec.  Chunk
    boundaries and chunk order are identical, so the codecs intern the
    vocabulary in the same first-appearance order and the per-shard
    applications are the same computation.
    """
    codec = TokenCodec()
    with ShardedSummarizer(
        factory, num_shards=num_shards, backend=backend
    ) as sharded:
        for chunk in iter_chunks(pairs, CHUNK_SIZE):
            items = [item for item, _ in chunk]
            weights = [weight for _, weight in chunk] if weighted else None
            sharded.ingest(codec.encode_chunk(items, weights))
        sharded.flush()
        if backend == "process":
            return sharded.snapshot_summaries()
        # Live references (post-flush) so sketches -- which have no
        # serialised snapshot form -- can be compared too.
        return sharded.shard_summaries()


@pytest.mark.parametrize("seed", [7, 29])
class TestBackendDifferentialOracle:
    """The process backend is the same computation as the thread backend:
    per-shard summaries and the Theorem 11 merge are bit-identical on the
    same stream, for counter summaries and sketch tables alike."""

    @pytest.mark.parametrize("name", sorted(COUNTER_FACTORIES))
    def test_counter_summaries_bit_identical(self, name, seed):
        factory = COUNTER_FACTORIES[name]
        pairs = random_stream(seed, length=8_000)
        thread_shards = feed_backend(factory, pairs, False, "thread")
        process_shards = feed_backend(factory, pairs, False, "process")
        for thread_shard, process_shard in zip(thread_shards, process_shards):
            assert serialization.dumps(thread_shard) == serialization.dumps(
                process_shard
            )
        merged_thread = merge_summaries(thread_shards, k=K, make_estimator=factory)
        merged_process = merge_summaries(
            process_shards, k=K, make_estimator=factory
        )
        assert serialization.dumps(merged_thread.estimator) == serialization.dumps(
            merged_process.estimator
        )
        check = merged_process.check(oracle_of(pairs))
        assert check.holds, check.description

    @pytest.mark.parametrize("name", sorted(WEIGHTED_FACTORIES))
    def test_weighted_summaries_bit_identical(self, name, seed):
        factory = WEIGHTED_FACTORIES[name]
        pairs = random_stream(seed, length=8_000, weighted=True)
        thread_shards = feed_backend(factory, pairs, True, "thread")
        process_shards = feed_backend(factory, pairs, True, "process")
        for thread_shard, process_shard in zip(thread_shards, process_shards):
            assert serialization.dumps(thread_shard) == serialization.dumps(
                process_shard
            )
        check = merge_summaries(
            process_shards, k=K, make_estimator=factory
        ).check(oracle_of(pairs))
        assert check.holds, check.description

    def test_sketch_tables_bit_identical(self, seed):
        factory = lambda: CountMinSketch(width=512, depth=4, seed=9)  # noqa: E731
        pairs = random_stream(seed, length=6_000)
        thread_shards = feed_backend(factory, pairs, False, "thread")
        process_shards = feed_backend(factory, pairs, False, "process")
        for thread_shard, process_shard in zip(thread_shards, process_shards):
            assert (thread_shard._table == process_shard._table).all()


@pytest.mark.parametrize("seed", [13])
class TestRecoveryOracle:
    def test_wal_recovery_within_merged_bound(self, tmp_path, seed):
        """Crash recovery is just another ingest path: log every chunk,
        recover from the log alone, and hold the shards' own (1, 1) bound
        against the exact oracle of everything logged."""
        pairs = random_stream(seed)
        oracle = oracle_of(pairs)
        codec = TokenCodec()
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            for chunk in iter_chunks(pairs, CHUNK_SIZE):
                wal.append_chunk(
                    codec.encode_chunk([item for item, _ in chunk])
                )
        result = recover(
            tmp_path,
            make_estimator=COUNTER_FACTORIES["spacesaving"],
            num_shards=4,
            k=K,
        )
        assert result.stream_length == pytest.approx(sum(oracle.values()))
        assert result.merge.merged_constants == TailGuarantee(a=1.0, b=1.0)
        check = result.merge.check(oracle)
        assert check.holds, check.description
        # Zero loss at the item level: counter summaries never undercount
        # by more than the bound, and the heavy items are all present.
        top = dict(result.estimator.top_k(10))
        heaviest = sorted(oracle, key=oracle.get, reverse=True)[:3]
        for item in heaviest:
            assert item in top or result.estimator.estimate(item) > 0.0


@functools.lru_cache(maxsize=None)
def service_stream(name):
    """One of the owner-shard tier's token streams, as a tuple."""
    if name == "zipf":
        return tuple(zipf_stream(num_items=4_000, alpha=1.1, total=20_000, seed=5).items)
    if name == "drifting":
        buckets = drifting_zipf_streams(
            3_000, alpha=1.2, tokens_per_bucket=5_000, num_buckets=4, drift=150, seed=9
        )
        return tuple(token for bucket in buckets for token in bucket.items)
    if name == "lower-bound":
        stream, _ = lower_bound_streams(num_counters=NUM_COUNTERS, k=K, repetitions=40)
        return tuple(stream.items)
    return tuple(lossy_hostile_stream(epsilon=1.0 / 256, epochs=40).items)


SERVICE_STREAMS = ("zipf", "drifting", "lower-bound", "lossy-hostile")


@pytest.mark.parametrize("stream_name", SERVICE_STREAMS)
@pytest.mark.parametrize("num_shards", [1, 2, 4])
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
class TestOwnerShardServiceOracle:
    """Service ingest, then snapshot point and top-k answers, against an
    exact oracle and the (1, 1) bound every snapshot advertises.  Stored
    items are never underestimated, and a top-k answer is never empty."""

    def test_snapshot_answers_within_owner_shard_bound(
        self, weighted, num_shards, stream_name
    ):
        tokens = list(service_stream(stream_name))
        rng = random.Random(f"{weighted}-{num_shards}-{stream_name}")
        weights = [rng.uniform(0.5, 4.0) for _ in tokens] if weighted else None
        oracle = oracle_of(zip(tokens, weights or [1.0] * len(tokens)))
        total = sum(oracle.values())
        config = ServiceConfig(
            num_counters=NUM_COUNTERS,
            num_shards=num_shards,
            k=K,
            audit_rate=0.0,
            trace_sample_rate=0.0,
        )
        with HeavyHittersService(config) as service:
            for start in range(0, len(tokens), 2_048):
                request = {"op": "ingest", "items": tokens[start : start + 2_048]}
                if weighted:
                    request["weights"] = weights[start : start + 2_048]
                assert service.handle(request)["ok"]
            meta = service.handle({"op": "snapshot", "drain": True})
            assert meta["guarantee"] == {
                "a": 1.0, "b": 1.0, "k": K, "num_counters": NUM_COUNTERS
            }
            assert meta["stream_length"] == pytest.approx(total)
            bound = residual(oracle, K) / (NUM_COUNTERS - K) + 1e-9 * total

            def point(item):
                response = service.handle({"op": "query", "type": "point", "item": item})
                assert response["guarantee"] == meta["guarantee"]
                return response["estimate"]

            stored = service.snapshots.latest.estimator
            hottest = sorted(oracle, key=oracle.get, reverse=True)
            probes = hottest[:100] + hottest[100::37] + [f"never-sent-{i}" for i in range(3)]
            for item in probes:
                estimate = point(item)
                assert abs(estimate - oracle.get(item, 0.0)) <= bound, item
                if item in stored:
                    assert estimate >= oracle[item] - 1e-9 * total, item

            for k in (K, 3 * K):
                answer = service.handle({"op": "query", "type": "top-k", "k": k})["top_k"]
                assert len(answer) == min(k, len(stored)) > 0
                returned = {entry["item"] for entry in answer}
                for entry in answer:
                    assert abs(entry["estimate"] - oracle[entry["item"]]) <= bound
                    assert entry["estimate"] >= oracle[entry["item"]] - 1e-9 * total
                floor = min(entry["estimate"] for entry in answer)
                for item, count in oracle.items():
                    if item not in returned:
                        assert count <= floor + bound, (item, count, floor, bound)


@pytest.mark.parametrize("stream_name", SERVICE_STREAMS)
@pytest.mark.parametrize("num_shards", [2, 4])
def test_snapshot_file_and_recovery_answer_as_served(tmp_path, num_shards, stream_name):
    """A reloaded snapshot file and a WAL recovery answer every point and
    top-k query exactly like the served snapshot, within its (1, 1) bound."""
    tokens = list(service_stream(stream_name))
    oracle = oracle_of((token, 1.0) for token in tokens)
    config = ServiceConfig(
        num_counters=NUM_COUNTERS,
        num_shards=num_shards,
        k=K,
        snapshot_dir=str(tmp_path / "snapshots"),
        compress=True,
        wal_dir=str(tmp_path / "wal"),
        fsync="off",
        audit_rate=0.0,
        trace_sample_rate=0.0,
    )
    with HeavyHittersService(config) as service:
        for start in range(0, len(tokens), 2_048):
            assert service.handle({"op": "ingest", "items": tokens[start : start + 2_048]})["ok"]
        meta = service.handle({"op": "snapshot", "drain": True})
        served = service.snapshots.latest
        reloaded = SnapshotManager.load(meta["path"])
        service.wal.sync()
        recovered = recover(tmp_path / "wal").estimator
    bound = residual(oracle, K) / (NUM_COUNTERS - K) + 1e-9
    probes = list(oracle) + ["never-sent"]
    ranking = served.top_k(len(served.estimator))
    for answer in (reloaded, recovered):
        assert [answer.estimate(item) for item in probes] == [
            served.estimate(item) for item in probes
        ]
        assert answer.top_k(len(answer)) == ranking
        assert max_error(oracle, answer) <= bound
