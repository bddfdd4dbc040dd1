"""Tests for summary merging (Section 6.2, Theorem 11)."""

import pytest

from repro.algorithms.frequent import Frequent
from repro.algorithms.frequent_real import FrequentR
from repro.algorithms.space_saving import SpaceSaving
from repro.algorithms.space_saving_real import SpaceSavingR
from repro.core.merging import merge_summaries
from repro.core.tail_guarantee import TailGuarantee
from repro.metrics.error import max_error
from repro.streams.generators import weighted_zipf_stream


FACTORIES = {
    "frequent": lambda m: Frequent(num_counters=m),
    "spacesaving": lambda m: SpaceSaving(num_counters=m),
}


@pytest.fixture(params=sorted(FACTORIES))
def factory(request):
    return FACTORIES[request.param]


def summarise_parts(stream, factory, parts, m):
    summaries = []
    for part in stream.split(parts):
        estimator = factory(m)
        part.feed(estimator)
        summaries.append(estimator)
    return summaries


class TestMergeSummaries:
    def test_merged_constants_are_3a_and_a_plus_b(self, factory, zipf_medium):
        summaries = summarise_parts(zipf_medium, factory, parts=4, m=100)
        merged = merge_summaries(summaries, k=10, make_estimator=lambda: factory(100))
        assert merged.merged_constants == TailGuarantee(a=3.0, b=2.0)
        assert merged.num_sources == 4

    @pytest.mark.parametrize("parts", [2, 4, 8])
    def test_theorem11_guarantee_holds(self, factory, zipf_medium, parts):
        summaries = summarise_parts(zipf_medium, factory, parts=parts, m=150)
        merged = merge_summaries(summaries, k=10, make_estimator=lambda: factory(150))
        assert merged.check(zipf_medium.frequencies()).holds

    def test_merged_estimates_recover_heavy_items(self, factory, heavy_noise):
        summaries = summarise_parts(heavy_noise, factory, parts=4, m=100)
        merged = merge_summaries(summaries, k=10, make_estimator=lambda: factory(100))
        frequencies = heavy_noise.frequencies()
        heavy_items = [f"heavy-{i}" for i in range(10)]
        bound = merged.bound(frequencies)
        for item in heavy_items:
            assert abs(merged.estimator.estimate(item) - frequencies[item]) <= bound + 1e-9

    def test_merge_requires_at_least_one_summary(self, factory):
        with pytest.raises(ValueError):
            merge_summaries([], k=5, make_estimator=lambda: factory(10))

    def test_merge_requires_positive_k(self, factory, zipf_medium):
        summaries = summarise_parts(zipf_medium, factory, parts=2, m=50)
        with pytest.raises(ValueError):
            merge_summaries(summaries, k=0, make_estimator=lambda: factory(50))

    def test_explicit_source_constants(self, factory, zipf_medium):
        summaries = summarise_parts(zipf_medium, factory, parts=2, m=100)
        merged = merge_summaries(
            summaries,
            k=5,
            make_estimator=lambda: factory(100),
            source_constants=TailGuarantee(a=1.0, b=2.0),
        )
        assert merged.merged_constants == TailGuarantee(a=3.0, b=3.0)

    def test_merging_exact_summaries_is_exact(self, factory):
        # If each part has fewer distinct items than counters, the per-part
        # summaries are exact and merging top-k of k >= distinct items is a
        # faithful union.
        from repro.streams.stream import Stream

        part_a = Stream(["a"] * 6 + ["b"] * 3)
        part_b = Stream(["a"] * 2 + ["c"] * 4)
        summaries = []
        for part in (part_a, part_b):
            estimator = factory(10)
            part.feed(estimator)
            summaries.append(estimator)
        merged = merge_summaries(summaries, k=3, make_estimator=lambda: factory(10))
        assert merged.estimator.estimate("a") == pytest.approx(8.0)
        assert merged.estimator.estimate("c") == pytest.approx(4.0)


class TestMergeModes:
    def test_unknown_mode_rejected(self, factory, zipf_medium):
        summaries = summarise_parts(zipf_medium, factory, parts=2, m=50)
        with pytest.raises(ValueError):
            merge_summaries(summaries, k=5, make_estimator=lambda: factory(50), mode="bogus")

    def test_top_k_mode_keeps_heavy_items(self, factory, heavy_noise):
        summaries = summarise_parts(heavy_noise, factory, parts=4, m=100)
        merged = merge_summaries(
            summaries, k=10, make_estimator=lambda: factory(100), mode="top_k"
        )
        frequencies = heavy_noise.frequencies()
        for index in range(10):
            item = f"heavy-{index}"
            assert merged.estimator.estimate(item) > 0.5 * frequencies[item]

    def test_top_k_mode_drops_items_outside_every_sites_top_k(self, factory):
        """The counterexample that motivates the all_counters default.

        An item that is ranked (k+1)-th at every site vanishes from the
        literal top-k merge even though the sites' summaries knew it exactly,
        while the default mode preserves it.
        """
        from repro.streams.stream import Stream

        part = Stream(["big"] * 100 + ["medium"] * 99)
        summaries = []
        for _ in range(2):
            estimator = factory(10)
            part.feed(estimator)
            summaries.append(estimator)
        top_k = merge_summaries(
            summaries, k=1, make_estimator=lambda: factory(10), mode="top_k"
        )
        full = merge_summaries(
            summaries, k=1, make_estimator=lambda: factory(10), mode="all_counters"
        )
        assert top_k.estimator.estimate("medium") == 0.0
        assert full.estimator.estimate("medium") == pytest.approx(198.0)


class TestMergeAllCounters:
    def test_heuristic_merge_estimates_are_reasonable(self, factory, zipf_medium):
        summaries = summarise_parts(zipf_medium, factory, parts=4, m=150)
        merged = merge_summaries(
            summaries, k=5, make_estimator=lambda: factory(150), mode="all_counters"
        ).estimator
        frequencies = zipf_medium.frequencies()
        # No formal guarantee, but the error should stay within the trivial
        # F1/m bound plus the per-part errors.
        assert max_error(frequencies, merged) <= 4 * zipf_medium.total_weight / 150


class TestDisjointUnion:
    """Key-disjoint parts (hash partitions) are combined without a merge."""

    @staticmethod
    def summarise_partitions(stream, factory, parts, m):
        summaries = [factory(m) for _ in range(parts)]
        for item in stream.items:
            summaries[hash(item) % parts].update(item)
        return summaries

    @pytest.mark.parametrize("parts", [1, 3])
    def test_union_answers_from_owners_with_source_constants(
        self, factory, zipf_medium, parts
    ):
        summaries = self.summarise_partitions(zipf_medium, factory, parts, m=100)
        union = merge_summaries(
            summaries, k=10, make_estimator=lambda: factory(100), disjoint=True
        )
        assert union.merged_constants == union.source_constants == TailGuarantee(1.0, 1.0)
        estimator = union.estimator
        assert estimator.num_counters == 100
        assert estimator.stream_length == float(len(zipf_medium.items))
        assert len(estimator) == sum(len(summary) for summary in summaries)
        frequencies = zipf_medium.frequencies()
        for item in frequencies:
            owner = summaries[hash(item) % parts]
            assert estimator.estimate(item) == owner.estimate(item)
        ranked = estimator.top_k(len(estimator))
        assert [count for _, count in ranked] == sorted(
            estimator.counters().values(), reverse=True
        )
        assert union.check(frequencies).holds

    def test_union_is_read_only_and_checks_its_inputs(self, factory):
        union = merge_summaries(
            [factory(10), factory(10)], k=2, make_estimator=lambda: factory(10), disjoint=True
        )
        with pytest.raises(TypeError):
            union.estimator.update("a")
        with pytest.raises(ValueError):
            merge_summaries(
                [factory(10), factory(20)], k=2, make_estimator=lambda: factory(10), disjoint=True
            )
        with pytest.raises(ValueError):
            merge_summaries(
                [factory(10)], k=2, make_estimator=lambda: factory(10), mode="top_k",
                disjoint=True,
            )


class TestWeightedMerge:
    """Theorem 11 under Section 6.1 weighted streams (real-valued weights)."""

    WEIGHTED_FACTORIES = {
        "frequentr": lambda m: FrequentR(num_counters=m),
        "spacesavingr": lambda m: SpaceSavingR(num_counters=m),
    }

    @pytest.fixture(scope="class")
    def weighted_stream(self):
        return weighted_zipf_stream(
            num_items=800, alpha=1.2, num_updates=6_000, weight_scale=25.0, seed=21
        )

    @pytest.mark.parametrize("name", sorted(WEIGHTED_FACTORIES))
    @pytest.mark.parametrize("parts", [2, 4])
    def test_theorem11_holds_for_weighted_streams(self, name, parts, weighted_stream):
        weighted_factory = self.WEIGHTED_FACTORIES[name]
        summaries = []
        for index, part in enumerate(weighted_stream.split(parts)):
            estimator = weighted_factory(150)
            # Alternate sequential and batched ingestion so the merge
            # guarantee is exercised over both ingest paths.
            part.feed(estimator, chunk_size=512 if index % 2 else None)
            summaries.append(estimator)
        merged = merge_summaries(
            summaries, k=10, make_estimator=lambda: weighted_factory(150)
        )
        assert merged.merged_constants == TailGuarantee(a=3.0, b=2.0)
        check = merged.check(weighted_stream.frequencies())
        assert check.holds, check

    def test_weighted_merge_recovers_heavy_weight_items(self, weighted_stream):
        summaries = []
        for part in weighted_stream.split(4):
            estimator = SpaceSavingR(num_counters=150)
            part.feed(estimator)
            summaries.append(estimator)
        merged = merge_summaries(
            summaries, k=10, make_estimator=lambda: SpaceSavingR(150)
        )
        frequencies = weighted_stream.frequencies()
        bound = merged.bound(frequencies)
        heaviest = sorted(frequencies, key=frequencies.get, reverse=True)[:5]
        for item in heaviest:
            assert abs(merged.estimator.estimate(item) - frequencies[item]) <= bound + 1e-6
