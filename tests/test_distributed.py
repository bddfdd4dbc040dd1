"""Tests for the distributed partition / summarise / merge substrate."""

import pytest

from repro.algorithms.space_saving import SpaceSaving
from repro.distributed.mergers import DistributedSummarizer
from repro.distributed.partition import hash_partition, make_partitioner, partition_stream
from repro.streams.stream import Stream


def combined_frequencies(parts):
    totals = {}
    for part in parts:
        for item, count in part.frequencies().items():
            totals[item] = totals.get(item, 0) + count
    return totals


class TestPartitioning:
    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin", "hash"])
    def test_partition_preserves_multiset(self, zipf_medium, strategy):
        parts = partition_stream(zipf_medium, 4, strategy)
        assert len(parts) == 4
        assert combined_frequencies(parts) == zipf_medium.frequencies()

    def test_hash_partition_is_item_disjoint(self, zipf_medium):
        parts = hash_partition(zipf_medium, 4)
        seen = {}
        for index, part in enumerate(parts):
            for item in part.frequencies():
                assert seen.setdefault(item, index) == index

    def test_unknown_strategy_rejected(self, zipf_medium):
        with pytest.raises(ValueError):
            partition_stream(zipf_medium, 4, "bogus")
        with pytest.raises(ValueError):
            make_partitioner("bogus")

    def test_bad_site_count_rejected(self, zipf_medium):
        with pytest.raises(ValueError):
            partition_stream(zipf_medium, 0, "contiguous")
        with pytest.raises(ValueError):
            hash_partition(zipf_medium, 0)

    def test_make_partitioner_round_trip(self, zipf_medium):
        partitioner = make_partitioner("round_robin")
        parts = partitioner(zipf_medium, 3)
        assert combined_frequencies(parts) == zipf_medium.frequencies()


class TestDistributedSummarizer:
    def test_run_pipeline_and_guarantee(self, zipf_medium):
        coordinator = DistributedSummarizer(
            make_estimator=lambda: SpaceSaving(num_counters=150),
            k=10,
            num_sites=4,
        )
        result = coordinator.run(zipf_medium)
        assert coordinator.check_guarantee(zipf_medium.frequencies()).holds
        assert result.num_sources == 4
        assert len(coordinator.sites) == 4

    def test_estimate_and_top_k_queries(self, zipf_medium):
        coordinator = DistributedSummarizer(
            make_estimator=lambda: SpaceSaving(num_counters=200),
            k=10,
            num_sites=4,
        )
        coordinator.run(zipf_medium)
        frequencies = zipf_medium.frequencies()
        bound = coordinator.merged.bound(frequencies)
        # The most frequent item is estimated within the merged bound.
        assert abs(coordinator.estimate(1) - frequencies[1]) <= bound + 1e-9
        top = coordinator.top_k(5)
        assert len(top) == 5
        assert top[0][0] == 1

    def test_merged_constants(self, zipf_medium):
        coordinator = DistributedSummarizer(
            make_estimator=lambda: SpaceSaving(num_counters=100),
            k=5,
            num_sites=2,
        )
        coordinator.run(zipf_medium)
        constants = coordinator.merged_constants()
        assert (constants.a, constants.b) == (3.0, 2.0)

    def test_queries_before_run_raise(self):
        coordinator = DistributedSummarizer(
            make_estimator=lambda: SpaceSaving(num_counters=10), k=2, num_sites=2
        )
        with pytest.raises(RuntimeError):
            coordinator.estimate("a")
        with pytest.raises(RuntimeError):
            coordinator.merge()

    def test_site_summaries_expose_local_state(self):
        stream = Stream(["a"] * 6 + ["b"] * 4)
        coordinator = DistributedSummarizer(
            make_estimator=lambda: SpaceSaving(num_counters=8), k=2, num_sites=2
        )
        coordinator.run(stream)
        assert sum(site.local_weight for site in coordinator.sites) == 10.0

    def test_rejects_bad_site_count(self):
        with pytest.raises(ValueError):
            DistributedSummarizer(
                make_estimator=lambda: SpaceSaving(num_counters=8), k=2, num_sites=0
            )

    def test_communication_cost_scales_with_sites_and_counters(self, zipf_medium):
        small = DistributedSummarizer(
            make_estimator=lambda: SpaceSaving(num_counters=50), k=5, num_sites=2
        )
        small.run(zipf_medium)
        large = DistributedSummarizer(
            make_estimator=lambda: SpaceSaving(num_counters=50), k=5, num_sites=8
        )
        large.run(zipf_medium)
        assert small.communication_cost_words() <= 2 * 3 * 50
        assert large.communication_cost_words() > small.communication_cost_words()

    def test_communication_cost_requires_summaries(self):
        coordinator = DistributedSummarizer(
            make_estimator=lambda: SpaceSaving(num_counters=8), k=2, num_sites=2
        )
        with pytest.raises(RuntimeError):
            coordinator.communication_cost_words()


class TestSingleSite:
    def test_single_site_skips_the_partitioner(self, zipf_medium, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("partitioner must not run for one site")

        monkeypatch.setattr(
            "repro.distributed.mergers.partition_stream", explode
        )
        coordinator = DistributedSummarizer(
            make_estimator=lambda: SpaceSaving(num_counters=200),
            k=10,
            num_sites=1,
        )
        result = coordinator.run(zipf_medium)
        assert len(coordinator.sites) == 1
        assert coordinator.sites[0].local_weight == zipf_medium.total_weight
        assert result.check(zipf_medium.frequencies()).holds


class TestPlacementAgreement:
    def test_hash_partition_matches_service_sharding(self, zipf_medium):
        """Cross-site hash partitioning and in-process sharding agree."""
        from repro.service.sharding import shard_for

        parts = hash_partition(zipf_medium, 4)
        for site, part in enumerate(parts):
            for item in part.frequencies():
                assert shard_for(item, 4) == site

    def test_sharded_summarizer_agrees_with_hash_partition(self, zipf_medium, encode):
        from repro.service.sharding import ShardedSummarizer
        from repro.streams.exact import ExactCounter

        parts = hash_partition(zipf_medium, 4)
        with ShardedSummarizer(ExactCounter, num_shards=4) as sharded:
            sharded.ingest(encode(zipf_medium.items))
            summaries = sharded.shard_summaries()
            for part, summary in zip(parts, summaries):
                assert summary.counters() == part.frequencies()

    def test_unknown_strategy_rejected_even_for_one_site(self):
        with pytest.raises(ValueError, match="strategy"):
            DistributedSummarizer(
                make_estimator=lambda: SpaceSaving(num_counters=50),
                k=5,
                num_sites=1,
                strategy="hashh",
            )
