"""FREQUENT_R: the real-valued-weight extension of FREQUENT (Section 6.1).

Each stream token is a pair ``(a_i, b_i)`` meaning ``b_i`` (a positive real)
occurrences of element ``a_i``.  The update rule generalises Algorithm 1:

* if ``a_i`` is stored, add ``b_i`` to its counter;
* else if a counter is free, store ``a_i`` with count ``b_i``;
* else let ``c_min`` be the smallest stored counter:

  - if ``b_i <= c_min``: subtract ``b_i`` from every stored counter;
  - otherwise: subtract ``c_min`` from every counter (at least one becomes
    zero), evict zero counters, and store ``a_i`` with count
    ``b_i - c_min``.

Theorem 10 states that FREQUENT_R keeps the k-tail guarantee with constants
``A = B = 1``; the benchmark ``bench_weighted.py`` checks this empirically.

The implementation uses the same lazy global-offset trick as
:class:`~repro.algorithms.frequent.Frequent`, so a "subtract from every
counter" step is O(#evicted) rather than O(m).
"""

from __future__ import annotations

from copy import copy as shallow_copy
from typing import Dict, Optional, Sequence

from repro.algorithms.base import FrequencyEstimator, Item


class FrequentR(FrequencyEstimator):
    """FREQUENT_R summary with ``m`` counters over weighted streams.

    Examples
    --------
    >>> summary = FrequentR(num_counters=2)
    >>> summary.update("a", 5.0)
    >>> summary.update("b", 1.5)
    >>> summary.update("c", 0.5)   # triggers a subtraction step
    >>> summary.estimate("a")
    4.5
    """

    estimate_side = "under"

    def __init__(self, num_counters: int) -> None:
        super().__init__(num_counters)
        # Stored value = true counter + accumulated offset.
        self._counts: Dict[Item, float] = {}
        self._offset = 0.0

    def update(self, item: Item, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"negative weights are not supported, got {weight}")
        if weight == 0:
            return
        self._record_update(weight)
        counts = self._counts
        if item in counts:
            counts[item] += weight
            return
        if len(counts) < self._num_counters:
            counts[item] = weight + self._offset
            return
        c_min = min(counts.values()) - self._offset
        if weight <= c_min:
            # Subtract the full weight from every stored counter; none can
            # reach zero because weight <= c_min, except exact equality.
            self._offset += weight
            if weight == c_min:
                self._evict_zeros()
            return
        # Subtract c_min from every counter, evict zeros, store the newcomer
        # with the leftover weight.
        self._offset += c_min
        self._evict_zeros()
        counts[item] = (weight - c_min) + self._offset

    def update_batch(
        self, items: Sequence[Item], weights: Optional[Sequence[float]] = None
    ) -> None:
        """Batched fast path: one weighted FREQUENT_R update per distinct item.

        FREQUENT_R is weight-native, so pre-aggregating a chunk is simply a
        merged reordering of its tokens; the k-tail guarantee with
        ``A = B = 1`` (Theorem 10) is preserved, while individual counters
        may differ from token-by-token replay.
        """
        self._update_batch_aggregated(items, weights)

    def _evict_zeros(self) -> None:
        offset = self._offset
        dead = [item for item, value in self._counts.items() if value - offset <= 1e-12]
        for item in dead:
            del self._counts[item]

    def copy(self) -> "FrequentR":
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
        return {item: value - offset for item, value in self._counts.items()}
