"""repro: Space-optimal Heavy Hitters with Strong Error Bounds (PODS 2009).

A full reproduction of Berinde, Cormode, Indyk and Strauss, *"Space-optimal
Heavy Hitters with Strong Error Bounds"*, PODS 2009.

The package is organised as follows:

* :mod:`repro.algorithms` -- the counter algorithms the paper analyses
  (FREQUENT, SPACESAVING, LOSSYCOUNTING and the weighted variants).
* :mod:`repro.sketches` -- the randomised baselines from Table 1
  (Count-Min, Count-Sketch).
* :mod:`repro.streams` -- stream datatypes, generators, adversarial
  orderings and synthetic trace workloads.
* :mod:`repro.metrics` -- frequency-moment norms and error / recovery
  metrics.
* :mod:`repro.core` -- the paper's contribution: the heavy-tolerant counter
  framework, the k-tail bound, sparse recovery, Zipf and top-k guarantees,
  summary merging and the space lower bound.
* :mod:`repro.distributed` -- the multi-site summarise-then-merge substrate.
* :mod:`repro.engine` -- the columnar token engine: a :class:`TokenCodec`
  interning tokens into dense int64 ids plus vectorised, bit-identical
  fingerprint / Carter--Wegman hash / shard kernels underneath every
  batched hot path.
* :mod:`repro.experiments` -- one experiment per table / theorem, used by
  the benchmarks.

Quickstart
----------
>>> from repro import HeavyHitters
>>> hh = HeavyHitters(phi=0.1, epsilon=0.02)
>>> hh.update_many(["x"] * 50 + ["y"] * 30 + list(range(20)))
>>> sorted(item for item in hh.guaranteed_items())
['x', 'y']
"""

from repro.algorithms import (
    Frequent,
    FrequentR,
    LossyCounting,
    SpaceSaving,
    SpaceSavingHeap,
    SpaceSavingR,
)
from repro.core import (
    HeavyHitters,
    TailGuarantee,
    check_tail_guarantee,
    find_heavy_hitters,
    k_sparse_recovery,
    m_sparse_recovery,
    merge_summaries,
)
from repro.engine import EncodedChunk, TokenCodec
from repro.sketches import CountMinSketch, CountSketch
from repro.streams import Stream, WeightedStream, zipf_stream

__version__ = "1.0.0"

__all__ = [
    "Frequent",
    "FrequentR",
    "LossyCounting",
    "SpaceSaving",
    "SpaceSavingHeap",
    "SpaceSavingR",
    "CountMinSketch",
    "CountSketch",
    "EncodedChunk",
    "TokenCodec",
    "Stream",
    "WeightedStream",
    "zipf_stream",
    "HeavyHitters",
    "TailGuarantee",
    "check_tail_guarantee",
    "find_heavy_hitters",
    "k_sparse_recovery",
    "m_sparse_recovery",
    "merge_summaries",
    "__version__",
]
