"""Counter-based frequency estimation algorithms.

This subpackage implements the deterministic counter algorithms that the
paper analyses:

* :class:`~repro.algorithms.frequent.Frequent` -- the Misra--Gries FREQUENT
  algorithm (Algorithm 1 in the paper).
* :class:`~repro.algorithms.space_saving.SpaceSaving` -- the SPACESAVING
  algorithm of Metwally et al. (Algorithm 2), in both the O(1)-update
  Stream-Summary implementation and a heap-based variant.
* :class:`~repro.algorithms.lossy_counting.LossyCounting` -- the
  LOSSYCOUNTING baseline of Manku and Motwani (Table 1 comparison point).
* :class:`~repro.algorithms.array_summary.ArraySummary` -- FREQUENT_R
  applied a chunk at a time on NumPy arrays (the Misra--Gries merge);
  the heavy-hitters service's shard summary.
* :class:`~repro.algorithms.frequent_real.FrequentR` and
  :class:`~repro.algorithms.space_saving_real.SpaceSavingR` -- the
  real-valued-weight extensions from Section 6.1.

All estimators share the :class:`~repro.algorithms.base.FrequencyEstimator`
interface so that experiments, metrics, and the core analysis layer can treat
them uniformly.
"""

from repro.algorithms.array_summary import ArraySummary
from repro.algorithms.base import CounterSnapshot, FrequencyEstimator
from repro.algorithms.frequent import Frequent
from repro.algorithms.frequent_real import FrequentR
from repro.algorithms.lossy_counting import LossyCounting
from repro.algorithms.space_saving import SpaceSaving, SpaceSavingHeap
from repro.algorithms.space_saving_real import SpaceSavingR

__all__ = [
    "ArraySummary",
    "CounterSnapshot",
    "FrequencyEstimator",
    "Frequent",
    "FrequentR",
    "LossyCounting",
    "SpaceSaving",
    "SpaceSavingHeap",
    "SpaceSavingR",
]
