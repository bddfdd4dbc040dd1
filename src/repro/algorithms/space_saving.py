"""The SPACESAVING counter algorithm of Metwally, Agrawal and El Abbadi.

This is Algorithm 2 in the paper.  The summary keeps at most ``m`` counters.
A stored item's counter is incremented on arrival; a new item seen when the
summary is full *replaces* the item with the minimum counter and inherits its
count plus one.

Guarantees (proved in the paper):

* Heavy-hitter guarantee (Definition 1) with ``A = 1``:
  ``|f_i - c_i| <= F1 / m``.
* k-tail guarantee (Definition 2) with ``A = B = 1`` (Appendix C):
  ``|f_i - c_i| <= F1_res(k) / (m - k)`` for any ``k < m``.
* SPACESAVING always *overestimates*: ``c_i >= f_i`` for stored items, and
  the overestimation of item ``i`` is at most ``epsilon_i``, the counter
  value it inherited when it last entered the summary (Lemma 3 of [25]).
  Section 4.2 of the paper uses ``max(0, c_i - Delta)`` (with ``Delta`` the
  minimum counter) or ``c_i - epsilon_i`` to turn the summary into an
  *underestimating* one while preserving the k-tail bounds; both corrections
  are exposed here.

Two implementations are provided:

* :class:`SpaceSaving` uses the *Stream-Summary* structure from [25]: a
  doubly-linked list of buckets of equal count, giving O(1) updates for
  unit-weight streams.
* :class:`SpaceSavingHeap` uses a lazy min-heap; asymptotically O(log m) per
  update but simpler.  Both produce identical estimates on identical streams
  (checked by tests and an ablation benchmark).
"""

from __future__ import annotations

import heapq
from copy import copy as shallow_copy
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import (
    _WEIGHT_KEY,
    FrequencyEstimator,
    Item,
    _effective_tokens,
    aggregate_batch,
)


class _Bucket:
    """A node in the Stream-Summary bucket list.

    Holds every stored item that currently has the same counter value.  The
    item set is a dict used as an insertion-ordered set so that eviction of
    "some minimum item" is deterministic for a given input stream.
    """

    __slots__ = ("count", "items", "prev", "next")

    def __init__(self, count: float) -> None:
        self.count = count
        self.items: Dict[Item, None] = {}
        self.prev: Optional["_Bucket"] = None
        self.next: Optional["_Bucket"] = None


class SpaceSaving(FrequencyEstimator):
    """SPACESAVING summary backed by the Stream-Summary structure.

    Parameters
    ----------
    num_counters:
        The counter budget ``m``.

    Examples
    --------
    >>> summary = SpaceSaving(num_counters=2)
    >>> summary.update_many(["a", "a", "b", "c"])
    >>> summary.estimate("a") >= 2   # never underestimates
    True
    >>> sum(summary.counters().values()) == 4.0  # counters sum to N
    True
    """

    estimate_side = "over"

    def __init__(self, num_counters: int) -> None:
        super().__init__(num_counters)
        self._bucket_of: Dict[Item, _Bucket] = {}
        self._errors: Dict[Item, float] = {}
        self._head: Optional[_Bucket] = None  # bucket with the minimum count

    # ------------------------------------------------------------------ #
    # Bucket list maintenance
    # ------------------------------------------------------------------ #

    def _detach(self, bucket: _Bucket) -> None:
        """Unlink an empty bucket from the list."""
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        else:
            self._head = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev
        bucket.prev = bucket.next = None

    def _insert_after(self, bucket: _Bucket, new: _Bucket) -> None:
        """Link ``new`` immediately after ``bucket``."""
        new.prev = bucket
        new.next = bucket.next
        if bucket.next is not None:
            bucket.next.prev = new
        bucket.next = new

    def _insert_head(self, new: _Bucket) -> None:
        new.next = self._head
        new.prev = None
        if self._head is not None:
            self._head.prev = new
        self._head = new

    def _place_item(self, item: Item, count: float, after: Optional[_Bucket]) -> None:
        """Put ``item`` into the bucket with value ``count``.

        ``after`` is the bucket known to precede the target position (or
        ``None`` when the item should live at the head of the list).
        """
        if after is None:
            if self._head is not None and self._head.count == count:
                target = self._head
            else:
                target = _Bucket(count)
                self._insert_head(target)
        else:
            if after.next is not None and after.next.count == count:
                target = after.next
            else:
                target = _Bucket(count)
                self._insert_after(after, target)
        target.items[item] = None
        self._bucket_of[item] = target

    def _increment(self, item: Item, amount: float) -> None:
        """Move ``item`` from its bucket to the bucket of ``count+amount``."""
        bucket = self._bucket_of[item]
        new_count = bucket.count + amount
        del bucket.items[item]
        # Walk forward to find the insertion point.  For unit increments the
        # walk is at most one step, giving O(1) updates.
        anchor = bucket
        while anchor.next is not None and anchor.next.count < new_count:
            anchor = anchor.next
        self._place_item(item, new_count, anchor)
        if not bucket.items:
            self._detach(bucket)

    # ------------------------------------------------------------------ #
    # FrequencyEstimator interface
    # ------------------------------------------------------------------ #

    def _anchor_for(self, count: float) -> Optional[_Bucket]:
        """Return the last bucket whose count is strictly below ``count``.

        ``None`` means the new value belongs at the head of the list.  For
        unit-weight streams new items always carry the smallest value, so the
        scan terminates immediately and updates stay O(1) amortised.
        """
        anchor: Optional[_Bucket] = None
        cursor = self._head
        while cursor is not None and cursor.count < count:
            anchor = cursor
            cursor = cursor.next
        return anchor

    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process ``weight`` occurrences of ``item``.

        The canonical algorithm uses unit weights; arbitrary positive weights
        are accepted and handled in a single step (this is exactly the
        SPACESAVING_R extension of Section 6.1, which coincides with
        SPACESAVING when every weight is 1).
        """
        if weight < 0:
            raise ValueError(f"negative weights are not supported, got {weight}")
        if weight == 0:
            return
        self._record_update(weight)
        if item in self._bucket_of:
            self._increment(item, weight)
            return
        if len(self._bucket_of) < self._num_counters:
            self._errors[item] = 0.0
            self._place_item(item, weight, self._anchor_for(weight))
            return
        self._evict_min_and_insert(item, weight)

    def _evict_min_and_insert(self, item: Item, weight: float) -> None:
        """Summary full: evict the oldest item of the minimum bucket and let
        the new item inherit its count."""
        assert self._head is not None
        min_bucket = self._head
        victim = next(iter(min_bucket.items))
        min_count = min_bucket.count
        del min_bucket.items[victim]
        del self._bucket_of[victim]
        del self._errors[victim]
        if not min_bucket.items:
            self._detach(min_bucket)
        self._errors[item] = min_count
        new_count = min_count + weight
        self._place_item(item, new_count, self._anchor_for(new_count))

    def update_batch(
        self, items: Sequence[Item], weights: Optional[Sequence[float]] = None
    ) -> None:
        """Batched fast path: one weighted update per distinct item.

        A chunk is pre-aggregated into ``item -> total weight`` and applied
        with single weighted updates, which is exactly SPACESAVING_R over a
        merged reordering of the chunk.  Theorem 10 therefore guarantees the
        k-tail bound ``|f_i - c_i| <= F1_res(k) / (m - k)`` and the
        overestimation invariant ``c_i >= f_i`` continue to hold; individual
        counters may differ from sequential replay only when evictions
        interleave with arrivals of the same items inside a chunk.

        Already-stored items are incremented first (their bucket walks start
        from the item's current position), then new items enter heaviest
        first; both phases inline the per-item work of :meth:`update` so the
        batch path's cost is one dictionary/bucket operation per *distinct*
        item rather than one interpreted call per token.
        """
        tokens = _effective_tokens(items, weights)
        totals = aggregate_batch(items, weights)
        if not totals:
            return
        bucket_of = self._bucket_of
        total_weight = 0.0
        fresh: List[Tuple[Item, float]] = []
        for item, weight in totals.items():
            total_weight += weight
            if item in bucket_of:
                self._increment(item, weight)
            else:
                fresh.append((item, weight))
        fresh.sort(key=_WEIGHT_KEY, reverse=True)
        budget = self._num_counters
        for item, weight in fresh:
            if len(bucket_of) < budget:
                self._errors[item] = 0.0
                self._place_item(item, weight, self._anchor_for(weight))
            else:
                self._evict_min_and_insert(item, weight)
        self._stream_length += total_weight
        self._items_processed += tokens

    def copy(self) -> "SpaceSaving":
        """Structural copy: the bucket list is rebuilt node by node.

        Walked iteratively: a generic deep copy recurses along the list's
        links and overflows the stack on a 1,000-bucket list.
        Bucket item order and ``_bucket_of`` / ``_errors`` insertion order
        are kept, so the copy evicts the same victims as the original and
        serialises to the same payload.
        """
        clone = shallow_copy(self)
        twin: Dict[_Bucket, _Bucket] = {}
        previous: Optional[_Bucket] = None
        cursor = self._head
        while cursor is not None:
            bucket = _Bucket(cursor.count)
            bucket.items = dict(cursor.items)
            bucket.prev = previous
            if previous is not None:
                previous.next = bucket
            twin[cursor] = bucket
            previous = bucket
            cursor = cursor.next
        clone._head = None if self._head is None else twin[self._head]
        clone._bucket_of = {item: twin[bucket] for item, bucket in self._bucket_of.items()}
        clone._errors = dict(self._errors)
        return clone

    def estimate(self, item: Item) -> float:
        bucket = self._bucket_of.get(item)
        return 0.0 if bucket is None else bucket.count

    def counters(self) -> Dict[Item, float]:
        return {item: bucket.count for item, bucket in self._bucket_of.items()}

    def per_item_errors(self) -> Dict[Item, float]:
        return dict(self._errors)

    # ------------------------------------------------------------------ #
    # SPACESAVING-specific queries
    # ------------------------------------------------------------------ #

    @property
    def min_count(self) -> float:
        """The minimum non-zero counter value ``Delta``.

        Lemma 3 of [25] shows every per-item error is at most this value.
        Returns 0 when the summary is not yet full.
        """
        if len(self._bucket_of) < self._num_counters or self._head is None:
            return 0.0
        return self._head.count

    def corrected_counters(self) -> Dict[Item, float]:
        """Underestimating counters ``max(0, c_i - Delta)`` (Section 4.2)."""
        delta = self.min_count
        return {
            item: max(0.0, bucket.count - delta)
            for item, bucket in self._bucket_of.items()
        }

    def guaranteed_counters(self) -> Dict[Item, float]:
        """Per-item underestimates ``c_i - epsilon_i``.

        Uses the per-item error recorded when the item entered the summary,
        which is never larger than ``Delta`` and therefore at least as tight
        as :meth:`corrected_counters`.
        """
        counts = self.counters()
        return {item: counts[item] - self._errors.get(item, 0.0) for item in counts}


class SpaceSavingHeap(FrequencyEstimator):
    """SPACESAVING summary backed by a lazy min-heap.

    Produces exactly the same estimates as :class:`SpaceSaving` for the same
    stream (eviction picks the least-recently-promoted item among minimum
    counters, matching the Stream-Summary's FIFO bucket order closely enough
    that the *estimates* coincide; the *identity* of the evicted item can
    differ only between items that share the same counter value, which does
    not change any counter value).
    """

    estimate_side = "over"

    def __init__(self, num_counters: int) -> None:
        super().__init__(num_counters)
        self._counts: Dict[Item, float] = {}
        self._errors: Dict[Item, float] = {}
        self._heap: List[Tuple[float, int, Item]] = []
        self._sequence = 0

    def _push(self, item: Item, count: float) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (count, self._sequence, item))

    def _pop_min(self) -> Tuple[Item, float]:
        """Pop the current minimum, skipping stale heap entries."""
        while True:
            count, _, item = heapq.heappop(self._heap)
            if self._counts.get(item) == count:
                return item, count
            # Stale entry: the item was incremented (or evicted) since this
            # entry was pushed; discard and continue.

    def update(self, item: Item, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"negative weights are not supported, got {weight}")
        if weight == 0:
            return
        self._record_update(weight)
        counts = self._counts
        if item in counts:
            counts[item] += weight
            self._push(item, counts[item])
            return
        if len(counts) < self._num_counters:
            counts[item] = weight
            self._errors[item] = 0.0
            self._push(item, weight)
            return
        self._evict_min_and_insert(item, weight)

    def _evict_min_and_insert(self, item: Item, weight: float) -> None:
        """Summary full: evict the minimum item; the newcomer inherits its count."""
        victim, min_count = self._pop_min()
        del self._counts[victim]
        del self._errors[victim]
        self._counts[item] = min_count + weight
        self._errors[item] = min_count
        self._push(item, self._counts[item])

    def update_batch(
        self, items: Sequence[Item], weights: Optional[Sequence[float]] = None
    ) -> None:
        """Batched fast path; same contract as :meth:`SpaceSaving.update_batch`."""
        tokens = _effective_tokens(items, weights)
        totals = aggregate_batch(items, weights)
        if not totals:
            return
        counts = self._counts
        total_weight = 0.0
        fresh: List[Tuple[Item, float]] = []
        for item, weight in totals.items():
            total_weight += weight
            if item in counts:
                counts[item] += weight
                self._push(item, counts[item])
            else:
                fresh.append((item, weight))
        fresh.sort(key=_WEIGHT_KEY, reverse=True)
        budget = self._num_counters
        for item, weight in fresh:
            if len(counts) < budget:
                counts[item] = weight
                self._errors[item] = 0.0
                self._push(item, weight)
            else:
                self._evict_min_and_insert(item, weight)
        self._stream_length += total_weight
        self._items_processed += tokens

    def copy(self) -> "SpaceSavingHeap":
        """Structural copy; the heap's entries are immutable tuples."""
        clone = shallow_copy(self)
        clone._counts = dict(self._counts)
        clone._errors = dict(self._errors)
        clone._heap = list(self._heap)
        return clone

    def estimate(self, item: Item) -> float:
        return self._counts.get(item, 0.0)

    def counters(self) -> Dict[Item, float]:
        return dict(self._counts)

    def per_item_errors(self) -> Dict[Item, float]:
        return dict(self._errors)

    @property
    def min_count(self) -> float:
        """The minimum non-zero counter value ``Delta`` (0 while not full)."""
        if len(self._counts) < self._num_counters:
            return 0.0
        while self._heap:
            count, _, item = self._heap[0]
            if self._counts.get(item) == count:
                return count
            heapq.heappop(self._heap)
        return 0.0

    def corrected_counters(self) -> Dict[Item, float]:
        """Underestimating counters ``max(0, c_i - Delta)`` (Section 4.2)."""
        delta = self.min_count
        return {item: max(0.0, c - delta) for item, c in self._counts.items()}

    def guaranteed_counters(self) -> Dict[Item, float]:
        """Per-item underestimates ``c_i - epsilon_i``."""
        return {
            item: count - self._errors.get(item, 0.0)
            for item, count in self._counts.items()
        }
