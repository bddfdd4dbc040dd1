"""Exact frequency counting -- the ground truth for every experiment.

The error of a summary is defined against the true frequency vector ``f``
(Section 2: ``delta_i = |f_i - c_i|``).  :class:`ExactCounter` implements the
same :class:`~repro.algorithms.base.FrequencyEstimator` interface as the
approximate summaries so that experiments can treat "exact" as just another
algorithm (it is also the natural baseline for the space comparison: it needs
one counter per *distinct* item).
"""

from __future__ import annotations

import collections
from copy import copy as shallow_copy
from typing import Dict

from repro.algorithms.base import FrequencyEstimator, Item


class ExactCounter(FrequencyEstimator):
    """Exact frequency counter (unbounded space).

    Examples
    --------
    >>> exact = ExactCounter()
    >>> exact.update_many(["a", "b", "a"])
    >>> exact.estimate("a")
    2.0
    """

    estimate_side = "none"

    def __init__(self, num_counters: int = 1) -> None:
        # The budget argument is accepted for interface compatibility but the
        # counter is deliberately unbounded.
        super().__init__(num_counters)
        self._counts: Dict[Item, float] = collections.defaultdict(float)

    def update(self, item: Item, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"negative weights are not supported, got {weight}")
        self._record_update(weight)
        self._counts[item] += weight

    def copy(self) -> "ExactCounter":
        """Structural copy of the count table."""
        clone = shallow_copy(self)
        clone._counts = self._counts.copy()
        return clone

    def estimate(self, item: Item) -> float:
        return self._counts.get(item, 0.0)

    def counters(self) -> Dict[Item, float]:
        return dict(self._counts)

    def size_in_words(self) -> int:
        """Two words per distinct item actually stored."""
        return 2 * len(self._counts)
