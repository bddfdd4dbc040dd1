"""Merging multiple summaries (Section 6.2, Theorem 11).

Given ``l`` streams summarised independently by the same counter algorithm,
Theorem 11 shows how to build a summary of their union that keeps a k-tail
guarantee with constants ``(3A, A+B)``: extract a sparse approximation
``f'^(j)`` from each summary, feed a stream realising each ``f'^(j)`` into a
fresh instance of the counter algorithm, and use the result as the summary of
``f = sum_j f^(j)``.

Two variants of the "extract a sparse approximation" step are provided:

* ``mode="all_counters"`` (default) replays every stored counter of each
  summary.  The per-item deviation between ``f^(j)`` and this approximation
  is bounded by the summary's own error bound for *every* item, which is the
  property the Theorem 11 error decomposition needs; empirically the merged
  summary stays comfortably within the ``(3A, A+B)`` bound.
* ``mode="top_k"`` replays only the ``k`` largest counters, which is the
  literal construction described in the paper's proof and the right choice
  when the merge is communication-bounded (only ``k`` pairs travel per
  site).  Items ranked just outside the top ``k`` of every site are dropped
  entirely, so on mildly skewed data the merged error for those items can
  exceed the ``(3A, A+B)`` bound -- the ablation benchmark
  ``bench_merge.py`` quantifies this.

:func:`merge_summaries` implements both and returns a :class:`MergeResult`
that exposes the merged estimator, the merged guarantee constants, and a
bound evaluator.

Summaries that are all :class:`~repro.algorithms.array_summary.ArraySummary`
merge with ``mode="all_counters"`` by that class's own kernel
(:meth:`~repro.algorithms.array_summary.ArraySummary.merge`: sum the
counters by key, subtract the ``(m+1)``-th largest) instead of a replay.
The kernel keeps ``(1, 1)`` on the combined stream (see the class's
proof); the result still advertises Theorem 11's ``(3A, A+B)``.

When the streams are *key-disjoint* (hash partitions of one stream, as in
the service's shards) no merge is needed: ``disjoint=True`` returns a
:class:`DisjointUnion` of the summaries themselves.  An item's estimate is
its owner summary's count, within ``A * F1_res_j(k) / (m - Bk)`` of its true
frequency, and dropping the other streams' coordinates never raises the
k-residual (``F1_res_j(k) <= F1_res(k)``), so the union keeps the sources'
own ``(A, B)`` constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.algorithms.array_summary import ArraySummary
from repro.algorithms.base import FrequencyEstimator, Item
from repro.core.bounds import k_tail_bound, merged_tail_constants
from repro.core.sparse_recovery import k_sparse_recovery
from repro.core.tail_guarantee import GuaranteeCheck, TailGuarantee
from repro.metrics.error import max_error, residual

EstimatorFactory = Callable[[], FrequencyEstimator]


@dataclass
class MergeResult:
    """Outcome of merging several counter summaries."""

    estimator: FrequencyEstimator
    k: int
    source_constants: TailGuarantee
    merged_constants: TailGuarantee
    num_sources: int

    def bound(self, frequencies: Mapping[Item, float]) -> float:
        """The error bound of :attr:`merged_constants` on true frequencies."""
        residual_value = residual(frequencies, self.k)
        return k_tail_bound(
            residual_value,
            self.estimator.num_counters,
            self.k,
            a=self.merged_constants.a,
            b=self.merged_constants.b,
        )

    def check(self, frequencies: Mapping[Item, float]) -> GuaranteeCheck:
        """Verify the merged guarantee against the true combined frequencies."""
        return GuaranteeCheck(
            observed=max_error(frequencies, self.estimator),
            bound=self.bound(frequencies),
            description=(
                f"merged k-tail guarantee (A={self.merged_constants.a}, "
                f"B={self.merged_constants.b}, k={self.k}, "
                f"m={self.estimator.num_counters}, sources={self.num_sources})"
            ),
        )


class DisjointUnion(FrequencyEstimator):
    """Read-only union of summaries of key-disjoint streams.

    Each item is counted by at most one source (its owner), so the union's
    estimate -- the sum of the sources' estimates -- is the owner's count,
    and its counters are the sources' counters side by side.  The counter
    budget is the sources' common ``m``; the stream length is their sum.
    """

    def __init__(self, parts: Sequence[FrequencyEstimator]) -> None:
        if not parts:
            raise ValueError("a union needs at least one summary")
        if any(isinstance(part, DisjointUnion) for part in parts):
            raise ValueError("a union's parts cannot themselves be unions")
        budgets = {part.num_counters for part in parts}
        if len(budgets) != 1:
            raise ValueError(f"sources must share one counter budget, got {sorted(budgets)}")
        super().__init__(budgets.pop())
        self.parts = tuple(parts)
        self.estimate_side = parts[0].estimate_side
        self._stream_length = float(sum(part.stream_length for part in parts))
        self._items_processed = sum(part.items_processed for part in parts)

    def update(self, item: Item, weight: float = 1.0) -> None:
        raise TypeError("a union of disjoint summaries is read-only")

    def estimate(self, item: Item) -> float:
        return sum(part.estimate(item) for part in self.parts)

    def counters(self) -> Dict[Item, float]:
        union: Dict[Item, float] = {}
        for part in self.parts:
            union.update(part.counters())
        return union

    def per_item_errors(self) -> Dict[Item, float]:
        union: Dict[Item, float] = {}
        for part in self.parts:
            union.update(part.per_item_errors())
        return union

    def top_k(self, k: int) -> List[Tuple[Item, float]]:
        """The ``k`` largest estimates over all parts.

        Each part ranks its own counters (:meth:`FrequencyEstimator.top_k`)
        and the rankings merge by estimate.  Equal estimates keep part
        order, then each part's own order, so a union rebuilt from the
        same parts in the same order (a persisted snapshot file, a crash
        recovery) ranks exactly alike.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        rankings = chain.from_iterable(part.top_k(k) for part in self.parts)
        # A stable sort (reverse=True keeps it stable) of already-sorted runs.
        return sorted(rankings, key=itemgetter(1), reverse=True)[:k]

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def size_in_words(self) -> int:
        return sum(part.size_in_words() for part in self.parts)


def _replay_sparse_vector(
    estimator: FrequencyEstimator, vector: Mapping[Item, float]
) -> None:
    """Feed a stream realising ``vector`` into ``estimator``.

    Counter values from SPACESAVING-style summaries are real-valued after
    corrections, so the replay uses weighted updates; for integer counters
    this is equivalent to replaying that many unit occurrences.
    """
    for item, value in sorted(vector.items(), key=lambda kv: (-kv[1], repr(kv[0]))):
        if value > 0:
            estimator.update(item, value)


MERGE_MODES = ("all_counters", "top_k")


def merge_summaries(
    summaries: Sequence[FrequencyEstimator],
    k: int,
    make_estimator: EstimatorFactory | None = None,
    source_constants: TailGuarantee | None = None,
    mode: str = "all_counters",
    disjoint: bool = False,
) -> MergeResult:
    """Merge summaries of separate streams per Theorem 11.

    Parameters
    ----------
    summaries:
        The per-stream summaries (all produced by the same algorithm with the
        same counter budget).
    k:
        The tail parameter of the desired merged guarantee.
    make_estimator:
        Factory returning a fresh instance of the counter algorithm used for
        the final merging pass (typically the same class and budget as the
        sources).  Required unless ``disjoint`` or the summaries are all
        :class:`~repro.algorithms.array_summary.ArraySummary`.
    source_constants:
        The (A, B) constants of the source summaries; defaults to the proved
        constants for their class.
    mode:
        ``"all_counters"`` (default) or ``"top_k"``; see the module docstring
        for the trade-off.
    disjoint:
        The streams share no key.  The result is then the
        :class:`DisjointUnion` of the summaries (no replay, no
        ``make_estimator``) and keeps ``source_constants``.

    Examples
    --------
    >>> from repro.algorithms import SpaceSaving
    >>> parts = []
    >>> for start in (0, 1):
    ...     summary = SpaceSaving(num_counters=8)
    ...     summary.update_many([start, start, start + 10])
    ...     parts.append(summary)
    >>> merged = merge_summaries(parts, k=2, make_estimator=lambda: SpaceSaving(8))
    >>> merged.estimator.estimate(0) >= 2.0
    True
    """
    if not summaries:
        raise ValueError("at least one summary is required")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode not in MERGE_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MERGE_MODES}")
    if source_constants is None:
        source_constants = TailGuarantee.for_algorithm(summaries[0])
    if disjoint:
        if mode != "all_counters":
            raise ValueError("a disjoint union keeps every counter; mode must be 'all_counters'")
        return MergeResult(
            estimator=DisjointUnion(summaries),
            k=k,
            source_constants=source_constants,
            merged_constants=source_constants,
            num_sources=len(summaries),
        )
    if mode == "all_counters" and all(isinstance(s, ArraySummary) for s in summaries):
        merged: FrequencyEstimator = ArraySummary.merge(summaries)
    else:
        if make_estimator is None:
            raise ValueError("a Theorem 11 merge needs make_estimator")
        merged = make_estimator()
        for summary in summaries:
            if mode == "top_k":
                vector = k_sparse_recovery(summary, k=k).recovery
            else:
                vector = summary.counters()
            _replay_sparse_vector(merged, vector)
    a_merged, b_merged = merged_tail_constants(source_constants.a, source_constants.b)
    return MergeResult(
        estimator=merged,
        k=k,
        source_constants=source_constants,
        merged_constants=TailGuarantee(a=a_merged, b=b_merged),
        num_sources=len(summaries),
    )
