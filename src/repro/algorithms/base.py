"""Common interface for frequency estimation summaries.

Every algorithm in :mod:`repro.algorithms` and :mod:`repro.sketches`
implements the :class:`FrequencyEstimator` abstract base class.  The interface
follows the formalisation in Section 2 of the paper: the state of an
algorithm is (conceptually) an ``n``-dimensional vector of counters ``c`` with
at most ``m`` non-zero entries; the non-zero entries form the *frequent set*
``T``; the per-item estimation error is ``delta_i = |f_i - c_i|``.

Concrete classes only store the non-zero counters, so their memory footprint
is ``O(m)`` words as in the paper.
"""

from __future__ import annotations

import collections
import math
import operator
from abc import ABC, abstractmethod
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.codec import EncodedChunk
from repro.engine.vectorized import fingerprint_array

Item = Hashable

#: Sort key used by the batched fast paths: order aggregated (item, weight)
#: pairs by weight.  ``sorted(..., key=_WEIGHT_KEY, reverse=True)`` is stable,
#: so ties keep their aggregation order.
_WEIGHT_KEY = operator.itemgetter(1)

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def _unpack_batch(
    items: Sequence[Item], weights: Optional[Sequence[float]]
) -> Tuple[Sequence[Item], Optional[Sequence[float]]]:
    """Normalise a batch: an :class:`EncodedChunk` carries its own weights.

    Idempotent, so a batch may pass through several chunk-aware helpers:
    passing a chunk's own weight column back alongside it is accepted,
    anything else alongside a chunk is rejected.
    """
    if isinstance(items, EncodedChunk):
        if weights is not None and weights is not items.weights:
            raise ValueError(
                "weights must be None (or the chunk's own column) when items "
                "is an EncodedChunk"
            )
        return items, items.weights
    return items, weights


def _effective_tokens(items: Sequence[Item], weights: Optional[Sequence[float]]) -> int:
    """Number of chunk tokens a sequential ``update`` loop would record.

    ``update`` ignores zero-weight tokens (for summaries that early-return on
    them), so the batch paths must not count those either if their
    bookkeeping is to match sequential ingestion.  NaN weights are rejected
    identically in the list and ndarray branches (consistently with the
    service validation path) rather than being counted as non-zero.
    """
    if isinstance(items, EncodedChunk):
        return items.effective_tokens()
    if weights is None:
        return len(items)
    if isinstance(weights, np.ndarray):
        if np.isnan(weights).any():
            raise ValueError("NaN weights are not supported")
        return int(np.count_nonzero(weights))
    count = 0
    for weight in weights:
        if weight != weight:
            raise ValueError("NaN weights are not supported")
        if weight != 0:
            count += 1
    return count


def _require_integral_weights(weights: Optional[Sequence[float]], algorithm: str) -> None:
    """Reject fractional weights before any state is mutated.

    The integer-only summaries validate up front so that a bad token cannot
    leave the summary half-updated (counters mutated, bookkeeping not).
    """
    if weights is None:
        return
    if isinstance(weights, np.ndarray):
        if not np.array_equal(weights, np.floor(weights)):
            raise ValueError(
                f"{algorithm} only accepts non-negative integer weights"
            )
        return
    for weight in weights:
        if weight != int(weight):
            raise ValueError(
                f"{algorithm} only accepts non-negative integer weights; "
                f"got {weight!r}"
            )


def aggregate_batch(
    items: Sequence[Item], weights: Optional[Sequence[float]] = None
) -> Dict[Item, float]:
    """Collapse a batch of stream tokens into ``item -> total weight``.

    This is the pre-aggregation step shared by every batched ingestion fast
    path: a chunk of ``T`` tokens over ``D`` distinct items becomes ``D``
    weighted updates, so the per-token interpreter overhead is paid once per
    *distinct* item instead of once per token.

    ``items`` may be any sequence; integer-id streams may be passed as a
    NumPy integer array (with ``weights`` either ``None`` or a NumPy array of
    the same length), in which case the aggregation itself is vectorised.
    Keys of the returned dict are always plain Python objects (NumPy scalars
    are unboxed) so they interoperate with items ingested via ``update``.

    Zero-weight tokens are dropped; negative and non-finite weights raise
    ``ValueError`` exactly as the sequential path and the service ingest
    boundary do.

    An :class:`~repro.engine.codec.EncodedChunk` takes the fully columnar
    path: aggregation runs over the dense id column and only the *distinct*
    ids are decoded back into Python items.
    """
    items, weights = _unpack_batch(items, weights)
    if isinstance(items, EncodedChunk):
        ids, totals = items.aggregate()
        decode = items.codec.item_for
        return {
            decode(int(token_id)): float(total)
            for token_id, total in zip(ids, totals)
        }
    # Object-dtype arrays (mixed or boxed Python items) cannot go through
    # np.unique; Counter / the scalar loop handle them like plain sequences.
    if isinstance(items, np.ndarray) and items.dtype.kind == "O":
        items = items.tolist()
    if weights is None:
        if isinstance(items, np.ndarray):
            values, counts = np.unique(items, return_counts=True)
            return {value.item(): float(count) for value, count in zip(values, counts)}
        return {item: float(count) for item, count in collections.Counter(items).items()}
    if isinstance(items, np.ndarray) and isinstance(weights, np.ndarray):
        values, sums = _aggregate_weighted_arrays(items, weights)
        return {value.item(): float(total) for value, total in zip(values, sums)}
    totals: Dict[Item, float] = {}
    count = 0
    for item, weight in zip(items, weights):
        count += 1
        if weight < 0 or not math.isfinite(weight):
            raise ValueError(
                f"weights must be finite and non-negative, got {weight}"
            )
        if weight == 0:
            continue
        if isinstance(item, np.generic):
            # Unbox so dict keys (and the fingerprints computed from them)
            # match the plain-Python items queries are made with.
            item = item.item()
        totals[item] = totals.get(item, 0.0) + float(weight)
    if count != len(items) or count != len(weights):
        raise ValueError("items and weights must have the same length")
    return totals


def _aggregate_weighted_arrays(
    items: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and collapse parallel ndarray columns to (values, sums).

    The one definition of weighted array aggregation semantics -- finite
    non-negative weights, zero-total entries dropped -- shared by the dict
    and columnar batch paths so they cannot drift apart.
    """
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and non-negative")
    values, inverse = np.unique(items, return_inverse=True)
    sums = np.zeros(len(values), dtype=np.float64)
    np.add.at(sums, inverse.reshape(-1), np.asarray(weights, dtype=np.float64))
    keep = sums > 0.0
    return values[keep], sums[keep]


def aggregate_batch_columnar(
    items: Sequence[Item], weights: Optional[Sequence[float]] = None
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Collapse a batch into ``(fingerprints, totals, token_count)`` columns.

    The columnar twin of :func:`aggregate_batch`, used by the sketch batch
    paths: instead of a Python dict it returns the distinct items'
    ``uint64`` stable fingerprints and their ``float64`` total weights,
    ready for vectorised Carter--Wegman hashing.  ``token_count`` is the
    raw chunk length (sequential ingestion records every token, even
    zero-weight ones).

    For an :class:`~repro.engine.codec.EncodedChunk` the fingerprints come
    straight from the codec's cache (no hashing at all); for plain batches
    one scalar fingerprint is computed per *distinct* item, memoised across
    batches.
    """
    items, weights = _unpack_batch(items, weights)
    if isinstance(items, EncodedChunk):
        ids, totals = items.aggregate()
        return items.codec.fingerprints(ids), totals, len(items)
    if isinstance(items, np.ndarray) and items.dtype.kind in ("i", "u", "b"):
        # Integer arrays aggregate and fingerprint without boxing anything
        # into Python objects -- the path shard workers hit when the service
        # partitions ndarray batches.
        tokens = len(items)
        if weights is None:
            values, counts = np.unique(items, return_counts=True)
            return fingerprint_array(values), counts.astype(np.float64), tokens
        if isinstance(weights, np.ndarray):
            values, sums = _aggregate_weighted_arrays(items, weights)
            return fingerprint_array(values), sums, tokens
    totals_map = aggregate_batch(items, weights)
    tokens = len(items)
    if not totals_map:
        return _EMPTY_U64, _EMPTY_F64, tokens
    fingerprints = fingerprint_array(list(totals_map))
    totals = np.fromiter(totals_map.values(), dtype=np.float64, count=len(totals_map))
    return fingerprints, totals, tokens


@dataclass(frozen=True)
class CounterSnapshot:
    """An immutable snapshot of a summary's counters.

    Attributes
    ----------
    counts:
        Mapping from item to its (estimated) count.  Only items in the
        frequent set appear.
    errors:
        Optional mapping from item to the algorithm's recorded per-item error
        bound (``epsilon_i`` in the SPACESAVING paper).  Empty when the
        algorithm does not track per-item error.
    stream_length:
        Total weight processed so far (``F1`` of the processed prefix).
    num_counters:
        The configured counter budget ``m``.
    """

    counts: Dict[Item, float]
    errors: Dict[Item, float] = field(default_factory=dict)
    stream_length: float = 0.0
    num_counters: int = 0

    def top_k(self, k: int) -> List[Tuple[Item, float]]:
        """Return the ``k`` largest counters as ``(item, count)`` pairs.

        Ties are broken deterministically by the item's representation so
        that snapshots compare reproducibly across runs.
        """
        ordered = sorted(self.counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        return ordered[:k]

    def to_sparse_vector(self, k: int | None = None) -> Dict[Item, float]:
        """Return the counters restricted to the top ``k`` items.

        With ``k=None`` all stored counters are returned (the "m-sparse"
        recovery of Section 4.2); otherwise only the ``k`` largest (the
        "k-sparse" recovery of Section 4.1).
        """
        if k is None:
            return dict(self.counts)
        return dict(self.top_k(k))


class FrequencyEstimator(ABC):
    """Abstract base class for streaming frequency summaries.

    Parameters
    ----------
    num_counters:
        The counter budget ``m``.  Counter algorithms store at most ``m``
        (item, count) pairs; sketches interpret this as their total number of
        cells so that space comparisons are apples-to-apples.
    """

    #: Whether estimates never exceed true frequencies (FREQUENT) or never
    #: fall below them (SPACESAVING).  One of ``"under"``, ``"over"``,
    #: ``"none"``.
    estimate_side: str = "none"

    def __init__(self, num_counters: int) -> None:
        if num_counters < 1:
            raise ValueError(f"num_counters must be >= 1, got {num_counters}")
        self._num_counters = int(num_counters)
        self._stream_length = 0.0
        self._items_processed = 0

    # ------------------------------------------------------------------ #
    # Core streaming interface
    # ------------------------------------------------------------------ #

    @abstractmethod
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one stream token (``weight`` occurrences of ``item``)."""

    @abstractmethod
    def estimate(self, item: Item) -> float:
        """Return the estimated frequency of ``item`` (0 if not stored)."""

    @abstractmethod
    def counters(self) -> Dict[Item, float]:
        """Return the current non-zero counters as a dict."""

    def update_many(self, items: Iterable[Item]) -> None:
        """Process a sequence of unit-weight items."""
        for item in items:
            self.update(item)

    def update_weighted(self, pairs: Iterable[Tuple[Item, float]]) -> None:
        """Process a sequence of ``(item, weight)`` tuples."""
        for item, weight in pairs:
            self.update(item, weight)

    def update_batch(
        self, items: Sequence[Item], weights: Optional[Sequence[float]] = None
    ) -> None:
        """Process a chunk of stream tokens in one call.

        ``items`` is a sequence of tokens; ``weights`` is an optional
        parallel sequence of non-negative weights (``None`` means every token
        has unit weight).  Semantically this is equivalent to calling
        :meth:`update` once per token, and the base implementation does
        exactly that, so any subclass is batch-safe by default.

        Every concrete summary overrides this with a *fast path* that
        pre-aggregates the chunk into ``item -> total weight`` totals
        (:func:`aggregate_batch`) and applies one weighted update per
        distinct item.  For linear sketches the result is bit-for-bit
        identical to sequential ingestion (for integer-valued weights); for
        counter algorithms the aggregation is a merge-style reordering that
        preserves the k-tail guarantee (Theorem 10) but may assign different
        individual counters than sequential replay.  See each subclass for
        its exact contract.

        ``items`` may also be an :class:`~repro.engine.codec.EncodedChunk`
        (with ``weights=None``), in which case the chunk's own weight column
        applies; the base implementation decodes it back to items, while the
        fast paths stay columnar end-to-end.
        """
        items, weights = _unpack_batch(items, weights)
        if isinstance(items, EncodedChunk):
            items = items.items()
        if weights is None:
            self.update_many(items)
            return
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        for item, weight in zip(items, weights):
            self.update(item, weight)

    def _update_batch_aggregated(
        self, items: Sequence[Item], weights: Optional[Sequence[float]] = None
    ) -> None:
        """Shared batched fast path for weight-native summaries.

        Pre-aggregates the chunk and applies one :meth:`update` per distinct
        item, heaviest first (ties processed in aggregation order, which is
        deterministic for a given input representation).  Suitable for any
        summary whose single weighted update has the same semantics as
        repeated unit updates of the same total weight (SPACESAVING and the
        Section 6.1 weighted variants).

        ``stream_length`` advances by the chunk's total weight exactly as in
        sequential ingestion; ``items_processed`` counts the original tokens
        rather than the aggregated updates.
        """
        totals = aggregate_batch(items, weights)
        if not totals:
            return
        tokens = _effective_tokens(items, weights)
        before = self._items_processed
        for item, weight in sorted(totals.items(), key=_WEIGHT_KEY, reverse=True):
            self.update(item, weight)
        applied = self._items_processed - before
        self._items_processed += tokens - applied

    def copy(self) -> "FrequencyEstimator":
        """An independent estimator in the same state.

        The copy answers every query exactly as this one does, serialises
        to the same payload, and evolves identically under the same further
        updates; mutating either one leaves the other untouched.  The
        service takes its consistent per-shard copies (snapshots and
        checkpoints) this way, without a serialisation round trip.

        The counter summaries the service runs override this with a
        structural copy of their tables; the default is a deep copy.
        """
        return deepcopy(self)

    # ------------------------------------------------------------------ #
    # Derived queries
    # ------------------------------------------------------------------ #

    def __contains__(self, item: Item) -> bool:
        return item in self.counters()

    def __len__(self) -> int:
        """Number of items currently stored in the frequent set."""
        return len(self.counters())

    def __iter__(self) -> Iterator[Item]:
        return iter(self.counters())

    @property
    def num_counters(self) -> int:
        """The configured counter budget ``m``."""
        return self._num_counters

    @property
    def stream_length(self) -> float:
        """Total weight processed so far (``F1`` of the prefix)."""
        return self._stream_length

    @property
    def items_processed(self) -> int:
        """Number of stream tokens processed (regardless of weight)."""
        return self._items_processed

    def snapshot(self) -> CounterSnapshot:
        """Return an immutable snapshot of the current state."""
        return CounterSnapshot(
            counts=dict(self.counters()),
            errors=dict(self.per_item_errors()),
            stream_length=self._stream_length,
            num_counters=self._num_counters,
        )

    def per_item_errors(self) -> Dict[Item, float]:
        """Per-item error bounds, when the algorithm records them.

        SPACESAVING records, for each stored item, the counter value it
        inherited when it entered the frequent set; that value upper-bounds
        the overestimation of the item.  Algorithms that do not track this
        return an empty mapping.
        """
        return {}

    def top_k(self, k: int) -> List[Tuple[Item, float]]:
        """Return the ``k`` items with largest estimated frequency."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return self.snapshot().top_k(k)

    def heavy_hitters(self, phi: float) -> List[Tuple[Item, float]]:
        """Return items whose estimate exceeds ``phi * stream_length``.

        This is the classical phi-heavy-hitters query.  Because counter
        algorithms may over- or under-estimate, callers that need exact
        semantics should combine this with the error bound from
        :mod:`repro.core.bounds`.
        """
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must lie in (0, 1), got {phi}")
        threshold = phi * self._stream_length
        return [
            (item, count)
            for item, count in self.top_k(len(self))
            if count > threshold
        ]

    def size_in_words(self) -> int:
        """Memory footprint in machine words, per the paper's cost model.

        Counter algorithms store one (item, count) pair per counter, i.e.
        2 words per counter.  Sketch subclasses override this.
        """
        return 2 * self._num_counters

    # ------------------------------------------------------------------ #
    # Bookkeeping helpers for subclasses
    # ------------------------------------------------------------------ #

    def _record_update(self, weight: float) -> None:
        """Track stream length; subclasses call this once per update.

        Rejects negative and non-finite weights (a NaN weight would silently
        corrupt every later estimate), matching the validation the service
        ingest boundary applies.
        """
        if weight < 0 or not math.isfinite(weight):
            raise ValueError(
                f"weights must be finite and non-negative, got {weight}"
            )
        self._stream_length += weight
        self._items_processed += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(m={self._num_counters}, "
            f"stored={len(self)}, N={self._stream_length:g})"
        )
