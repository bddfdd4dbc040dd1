"""FREQUENT on NumPy arrays: the service's shard summary.

:class:`ArraySummary` is FREQUENT_R (Section 6.1, Theorem 10) applied a
whole chunk at a time, in the form of the Misra--Gries merge of Agarwal
et al. ("Mergeable Summaries", PODS 2012): add the chunk's per-item
totals to the stored counters, subtract the ``(m+1)``-th largest value
``c`` from every counter, and keep the ``m`` largest.  The state is four
columns -- sorted ``uint64`` key fingerprints, ``float64`` counters, an
object array of the keys, and the total decrement ``d`` -- so a chunk
costs a handful of NumPy calls over ``m + D`` entries (``D`` distinct
items in the chunk) instead of one Python-level update per distinct item.

Entries are sorted and grouped by :func:`~repro.engine.vectorized.stable_fingerprint`,
the value :class:`~repro.engine.codec.TokenCodec` caches at intern time and
:func:`~repro.engine.codec.partition_chunk` places shards by; it does not
depend on which codec interned the key, so a summary outlives codec
rotation.  A key's identity is still the key itself: the keys behind every
repeated fingerprint are compared, and two different keys that share a
fingerprint (ints map to themselves mod 2^64, so ``-1`` and ``2**64 - 1``
do) keep one counter each, side by side, exactly as a dict-keyed summary
would count them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from copy import copy as shallow_copy

import numpy as np

from repro.algorithms.base import FrequencyEstimator, Item, _unpack_batch
from repro.engine.codec import EncodedChunk, TokenCodec
from repro.engine.vectorized import fingerprint_array, stable_fingerprint

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_KEYS = np.empty(0, dtype=object)

#: Keys of the entries at the given offsets past the known keys.
KeyDecoder = Callable[[np.ndarray], Sequence[Item]]


def _object_array(keys: Sequence[Item]) -> np.ndarray:
    """A 1-D object array of ``keys`` (tuples stay single elements).

    ``np.fromiter`` takes ``dtype=object`` from NumPy 1.23 on, the floor
    ``pyproject.toml`` declares.
    """
    return np.fromiter(keys, dtype=object, count=len(keys))


def _keys_at(indices: np.ndarray, known: np.ndarray, decode: KeyDecoder) -> np.ndarray:
    """Keys of entries ``indices``: the first ``known.size`` entries carry
    their keys, the rest are decoded on demand."""
    inside = indices < known.size
    if inside.all():
        return known[indices]
    keys = np.empty(indices.size, dtype=object)
    keys[inside] = known[indices[inside]]
    outside = ~inside
    keys[outside] = _object_array(decode(indices[outside] - known.size))
    return keys


def _split_by_key(
    fingerprints: np.ndarray,
    first: np.ndarray,
    inverse: np.ndarray,
    shared: np.ndarray,
    known_keys: np.ndarray,
    decode: KeyDecoder,
) -> tuple[np.ndarray, np.ndarray]:
    """Regroup the entries of fingerprint groups ``shared`` by key.

    ``first``/``inverse`` group entries by fingerprint (as ``np.unique``
    returns them).  In each shared group the first key keeps the group;
    every other key gets a group of its own.  Returns the new
    ``(first, inverse)``, groups ordered by fingerprint, then by the entry
    that first carried their key.
    """
    members = np.flatnonzero(np.isin(inverse, shared))
    slots = inverse[members].tolist()
    labels: dict[tuple[int, Item], int] = {}
    regrouped: list[int] = []
    extra_first: list[int] = []
    for index, slot, key in zip(
        members.tolist(), slots, _keys_at(members, known_keys, decode).tolist()
    ):
        label = labels.get((slot, key))
        if label is None:
            if index == first[slot]:
                label = slot
            else:
                label = first.size + len(extra_first)
                extra_first.append(index)
            labels[(slot, key)] = label
        regrouped.append(label)
    inverse = inverse.copy()
    inverse[members] = regrouped
    first = np.concatenate((first, np.asarray(extra_first, dtype=first.dtype)))
    order = np.lexsort((first, fingerprints[first]))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


def _fold(
    fingerprints: np.ndarray,
    counts: np.ndarray,
    known_keys: np.ndarray,
    decode: KeyDecoder,
    num_counters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The Misra--Gries kernel: sum entries by key, then keep ``m`` counters.

    ``fingerprints``/``counts`` list entries that may repeat a key; the
    first ``known_keys.size`` entries come with their keys, the others are
    keyed by ``decode(offsets)`` -- called only for entries that survive or
    that repeat a fingerprint, so a chunk decodes no more ids than that.

    Returns ``(fingerprints, counters, keys, c)``: the distinct keys in
    fingerprint order with their summed counters, cut to the ``m`` largest
    after subtracting the ``(m+1)``-th largest value ``c`` (``c = 0`` when
    at most ``m`` keys remain).  Survivors whose counter drops to zero are
    kept, so the result holds ``min(m, distinct)`` counters.  Different
    keys that share a fingerprint are summed apart and sit next to each
    other, in the order their entries first appear.
    """
    slots, first, inverse = np.unique(fingerprints, return_index=True, return_inverse=True)
    if slots.size < fingerprints.size:
        owner = first[inverse]
        repeats = np.flatnonzero(owner != np.arange(fingerprints.size))
        theirs = _keys_at(repeats, known_keys, decode)
        ours = _keys_at(owner[repeats], known_keys, decode)
        shared = np.unique(inverse[repeats[theirs != ours]])
        if shared.size:
            first, inverse = _split_by_key(
                fingerprints, first, inverse, shared, known_keys, decode
            )
            slots = fingerprints[first]
    sums = np.bincount(inverse, weights=counts, minlength=slots.size)
    cut = 0.0
    excess = slots.size - num_counters
    if excess > 0:
        order = np.argpartition(sums, excess - 1)
        cut = float(sums[order[excess - 1]])
        keep = np.sort(order[excess:])
        slots, first = slots[keep], first[keep]
        sums = sums[keep] - cut
    return slots, sums, _keys_at(first, known_keys, decode), cut


class ArraySummary(FrequencyEstimator):
    """FREQUENT_R with ``m`` counters held in NumPy arrays.

    Answers: a stored item's estimate is its counter plus the total
    decrement, ``c_i + d``; any other item's is 0.  Stored estimates never
    fall below the true count, and every estimate is within ``d`` of it.

    Why ``(A, B) = (1, 1)``.  Write ``n`` for the stream weight and ``n̂``
    for the sum of the counters.

    * Adding a chunk adds its weight to both ``n`` and ``n̂``.  An item
      that enters had true count ``<= d`` before (it was absent), and one
      that stays keeps ``f_i - c_i``; so ``f_i - d <= c_i <= f_i`` holds
      for stored items and ``f_i <= d`` for absent ones.
    * A decrement by ``c`` lowers every counter by at most ``c`` and adds
      ``c`` to ``d``, so the invariant above survives it.  The ``m + 1``
      largest entries are each ``>= c`` and each lose ``c``, so the step
      removes at least ``(m+1)·c`` from ``n̂``: ``n - n̂ >= (m+1)·d``.
    * Counters never exceed true counts, and the ``k`` heaviest items each
      miss at most ``d``: ``n - n̂ <= F1res(k) + k·d``.

    Together, ``d <= F1res(k) / (m + 1 - k)`` for every ``k < m + 1``,
    which is within Definition 2's ``F1res(k) / (m - k)``.  Merging
    several summaries with the same kernel (:meth:`merge`) adds their
    ``n - n̂`` and ``d``, so the argument carries over unchanged.

    Arrays are replaced on every update, never written in place, so
    :meth:`copy` shares them.

    Examples
    --------
    >>> from repro.engine.codec import TokenCodec
    >>> summary = ArraySummary(num_counters=2)
    >>> summary.update_batch(TokenCodec().encode_chunk(["a", "a", "a", "b", "c"]))
    >>> summary.estimate("a"), summary.decrement
    (3.0, 1.0)
    >>> summary.top_k(1)
    [('a', 3.0)]
    >>> len(summary)  # "b" or "c" survives with counter 0, estimate d
    2
    """

    estimate_side = "over"

    def __init__(self, num_counters: int) -> None:
        super().__init__(num_counters)
        self._fingerprints = _EMPTY_U64
        self._counts = _EMPTY_F64
        self._keys = _EMPTY_KEYS
        self._decrement = 0.0

    @property
    def decrement(self) -> float:
        """The total decrement ``d``: every estimate is within ``d``."""
        return self._decrement

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def _absorb(self, fingerprints: np.ndarray, totals: np.ndarray, decode: KeyDecoder) -> None:
        """Fold distinct incoming entries into the counters (all or nothing)."""
        state = _fold(
            np.concatenate((self._fingerprints, fingerprints)),
            np.concatenate((self._counts, totals)),
            self._keys,
            decode,
            self._num_counters,
        )
        self._fingerprints, self._counts, self._keys, cut = state
        self._decrement += cut

    def update_batch(
        self, items: Sequence[Item], weights: Sequence[float] | None = None
    ) -> None:
        """Apply one chunk: sum it into the counters, then one decrement.

        ``items`` is an :class:`~repro.engine.codec.EncodedChunk`; a plain
        sequence (with optional ``weights``) is interned through a fresh
        codec first.  Only ids whose fingerprint is new to the summary and
        that survive the decrement, or that repeat a stored fingerprint,
        are decoded back into keys.
        """
        chunk, weights = _unpack_batch(items, weights)
        if not isinstance(chunk, EncodedChunk):
            chunk = TokenCodec(validate=False).encode_chunk(chunk, weights)
        ids, totals = chunk.aggregate()
        if ids.size:
            codec = chunk.codec
            self._absorb(
                codec.fingerprints(ids),
                totals,
                lambda offsets: codec.decode(ids[offsets]),
            )
        self._stream_length += chunk.total_weight
        self._items_processed += chunk.effective_tokens()

    def update(self, item: Item, weight: float = 1.0) -> None:
        if weight < 0 or not math.isfinite(weight):
            raise ValueError(f"weights must be finite and non-negative, got {weight}")
        if weight == 0:
            return
        if isinstance(item, np.generic):
            item = item.item()
        self._absorb(
            np.array([stable_fingerprint(item)], dtype=np.uint64),
            np.array([weight], dtype=np.float64),
            lambda offsets: [item],
        )
        self._record_update(weight)

    @classmethod
    def merge(cls, parts: Sequence[ArraySummary]) -> ArraySummary:
        """One summary of the union of ``parts``' streams, by the same kernel.

        The parts may share keys (window buckets).  Their counters are
        summed by key and cut back to ``m`` with one decrement ``c``; the
        result's ``d`` is the parts' decrements plus ``c``.
        """
        budgets = {part.num_counters for part in parts}
        if len(budgets) != 1:
            raise ValueError(f"parts must share one counter budget, got {sorted(budgets)}")
        merged = cls(budgets.pop())
        state = _fold(
            np.concatenate([part._fingerprints for part in parts]),
            np.concatenate([part._counts for part in parts]),
            np.concatenate([part._keys for part in parts]),
            lambda offsets: [],
            merged._num_counters,
        )
        merged._fingerprints, merged._counts, merged._keys, cut = state
        merged._decrement = cut + sum(part._decrement for part in parts)
        merged._stream_length = float(sum(part.stream_length for part in parts))
        merged._items_processed = sum(part.items_processed for part in parts)
        return merged

    @classmethod
    def from_counters(
        cls, num_counters: int, counters: dict[Item, float], decrement: float
    ) -> ArraySummary:
        """Rebuild a summary from its raw counters ``c_i`` and decrement ``d``.

        The inverse of :meth:`guaranteed_counters` plus :attr:`decrement`
        (the serialised form); fingerprints are recomputed from the keys.
        """
        summary = cls(num_counters)
        if len(counters) > summary._num_counters:
            raise ValueError(
                f"{len(counters)} counters exceed the budget of {num_counters}"
            )
        keys = _object_array(list(counters))
        fingerprints = fingerprint_array(list(counters))
        order = np.argsort(fingerprints, kind="stable")
        summary._fingerprints = fingerprints[order]
        summary._counts = np.fromiter(counters.values(), dtype=np.float64, count=len(counters))[order]
        summary._keys = keys[order]
        summary._decrement = float(decrement)
        return summary

    def copy(self) -> ArraySummary:
        """Shares the arrays: no update ever writes into them."""
        return shallow_copy(self)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def estimate(self, item: Item) -> float:
        fingerprint = np.uint64(stable_fingerprint(item))
        index = int(np.searchsorted(self._fingerprints, fingerprint))
        while index < self._fingerprints.size and self._fingerprints[index] == fingerprint:
            if self._keys[index] == item:
                return float(self._counts[index]) + self._decrement
            index += 1
        return 0.0

    def counters(self) -> dict[Item, float]:
        """Stored items with their estimates ``c_i + d``."""
        return dict(zip(self._keys.tolist(), (self._counts + self._decrement).tolist()))

    def guaranteed_counters(self) -> dict[Item, float]:
        """The raw counters ``c_i``: per-item underestimates, within ``d``."""
        return dict(zip(self._keys.tolist(), self._counts.tolist()))

    def top_k(self, k: int) -> list[tuple[Item, float]]:
        """The ``k`` largest estimates; ties go to the smaller fingerprint,
        then to the key stored first under it."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        order = np.argsort(-self._counts, kind="stable")[:k]
        estimates = self._counts[order] + self._decrement
        return list(zip(self._keys[order].tolist(), estimates.tolist()))

    def __len__(self) -> int:
        return int(self._counts.size)
