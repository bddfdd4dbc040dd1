"""The FREQUENT (Misra--Gries) counter algorithm.

This is Algorithm 1 in the paper.  The summary keeps at most ``m`` counters.
When a stored item arrives its counter is incremented; when a new item
arrives and a counter is free, the item is stored with count 1; otherwise
*all* stored counters are decremented by one and zero counters are evicted.

Guarantees (proved in the paper):

* Heavy-hitter guarantee (Definition 1) with ``A = 1``:
  ``|f_i - c_i| <= F1 / m``.
* k-tail guarantee (Definition 2) with ``A = B = 1`` (Appendix B):
  ``|f_i - c_i| <= F1_res(k) / (m - k)`` for any ``k < m``.
* FREQUENT always *underestimates*: ``c_i <= f_i``.  This is the property
  Theorem 7 (m-sparse recovery) relies on.

Two implementations are provided behind the same class:

* ``mode="eager"`` literally decrements every stored counter (the pseudocode
  of Algorithm 1) -- O(m) per decrement step.
* ``mode="lazy"`` keeps a global offset and stores ``c_i + offset``; a
  decrement step just bumps the offset and evicts items whose stored value
  equals the offset.  The externally visible counters are identical to the
  eager mode (an ablation benchmark and a property test check this), but
  updates are amortised O(1) dictionary operations.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from typing import Dict, Optional, Sequence

from repro.algorithms.base import (
    _WEIGHT_KEY,
    FrequencyEstimator,
    Item,
    _require_integral_weights,
    _unpack_batch,
    aggregate_batch,
)


class Frequent(FrequencyEstimator):
    """Misra--Gries FREQUENT summary with ``m`` counters.

    Parameters
    ----------
    num_counters:
        The counter budget ``m``.
    mode:
        ``"lazy"`` (default) or ``"eager"``; see module docstring.  Both
        modes produce identical estimates for identical input streams.

    Examples
    --------
    >>> summary = Frequent(num_counters=3)
    >>> summary.update_many(["a", "b", "a", "c", "a", "d"])
    >>> summary.estimate("a") >= 1
    True
    >>> summary.estimate("a") <= 3  # never overestimates
    True
    """

    estimate_side = "under"

    def __init__(self, num_counters: int, mode: str = "lazy") -> None:
        super().__init__(num_counters)
        if mode not in ("lazy", "eager"):
            raise ValueError(f"mode must be 'lazy' or 'eager', got {mode!r}")
        self._mode = mode
        # In lazy mode values are stored as (true counter + offset); in eager
        # mode the offset stays 0 and values are the counters themselves.
        self._counts: Dict[Item, float] = {}
        self._offset = 0.0

    # ------------------------------------------------------------------ #
    # FrequencyEstimator interface
    # ------------------------------------------------------------------ #

    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process ``weight`` unit-occurrences of ``item``.

        FREQUENT as defined in Algorithm 1 handles unit updates; integral
        weights are processed as repeated unit updates to preserve the exact
        semantics of the pseudocode (use :class:`FrequentR` for real-valued
        weights processed in one step).
        """
        if weight != int(weight) or weight < 0:
            raise ValueError(
                "Frequent only accepts non-negative integer weights; "
                f"got {weight!r}. Use FrequentR for real-valued updates."
            )
        for _ in range(int(weight)):
            self._update_one(item)

    def _update_one(self, item: Item) -> None:
        self._record_update(1.0)
        counts = self._counts
        if item in counts:
            counts[item] += 1.0
            return
        if len(counts) < self._num_counters:
            counts[item] = 1.0 + self._offset
            return
        # Decrement step: the new item is not stored and the table is full.
        if self._mode == "lazy":
            self._offset += 1.0
            self._evict_dead()
            return
        for stored in counts:
            counts[stored] -= 1.0
        dead = [stored for stored, value in counts.items() if value <= 0.0]
        for stored in dead:
            del counts[stored]

    def update_batch(
        self, items: Sequence[Item], weights: Optional[Sequence[float]] = None
    ) -> None:
        """Batched fast path: weighted Misra--Gries steps per distinct item.

        The chunk is pre-aggregated into ``item -> total weight`` and applied
        with one weighted decrement step per distinct item (the FREQUENT_R
        rule of Section 6.1 restricted to integer weights), heaviest first.
        This is a merge-style reordering of the chunk: the underestimation
        invariant ``c_i <= f_i`` and the k-tail guarantee with ``A = B = 1``
        (Theorem 10) are preserved, but individual counters may differ from
        unit-by-unit sequential replay.

        Only the lazy implementation supports the fast path; eager mode
        falls back to bit-identical sequential replay so that its
        reconstruction of ``decrements`` from conservation of mass stays
        exact.
        """
        if self._mode != "lazy":
            super().update_batch(items, weights)
            return
        items, weights = _unpack_batch(items, weights)
        _require_integral_weights(weights, "Frequent")
        totals = aggregate_batch(items, weights)
        if not totals:
            return
        counts = self._counts
        budget = self._num_counters
        total_weight = 0.0
        for item, weight in sorted(totals.items(), key=_WEIGHT_KEY, reverse=True):
            total_weight += weight
            if item in counts:
                counts[item] += weight
                continue
            if len(counts) < budget:
                counts[item] = weight + self._offset
                continue
            c_min = min(counts.values()) - self._offset
            if weight <= c_min:
                self._offset += weight
                if weight == c_min:
                    self._evict_dead()
                continue
            self._offset += c_min
            self._evict_dead()
            counts[item] = (weight - c_min) + self._offset
        self._stream_length += total_weight
        self._items_processed += int(total_weight)

    def _evict_dead(self) -> None:
        """Drop counters consumed entirely by the accumulated offset."""
        offset = self._offset
        dead = [stored for stored, value in self._counts.items() if value <= offset]
        for stored in dead:
            del self._counts[stored]

    def copy(self) -> "Frequent":
        """Structural copy: the stored values and the offset carry over as is."""
        clone = shallow_copy(self)
        clone._counts = dict(self._counts)
        return clone

    def estimate(self, item: Item) -> float:
        value = self._counts.get(item)
        if value is None:
            return 0.0
        return value - self._offset

    def counters(self) -> Dict[Item, float]:
        offset = self._offset
        if offset == 0.0:
            return dict(self._counts)
        return {item: value - offset for item, value in self._counts.items()}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def mode(self) -> str:
        """Which implementation strategy this instance uses."""
        return self._mode

    @property
    def decrements(self) -> float:
        """Total number of decrement operations performed so far.

        In the notation of Appendix B this is ``d``; it upper-bounds every
        per-item error and satisfies ``d <= F1_res(k) / (m + 1 - k)``.
        """
        if self._mode == "lazy":
            return self._offset
        # Eager mode: reconstruct d from conservation of mass --
        # sum of counters = N - d*(m+1).
        total = sum(self._counts.values())
        return (self._stream_length - total) / (self._num_counters + 1)
