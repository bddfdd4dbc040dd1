"""Token interning and columnar encoded chunks.

The boundary between arbitrary Python stream tokens and the vectorised
kernels of :mod:`repro.engine.vectorized` is the :class:`TokenCodec`: it
interns hashable items into dense ``int64`` ids, computing each item's
stable fingerprint exactly once at intern time.  Everything downstream of
the codec -- aggregation, Carter--Wegman hashing, shard routing -- then
operates on NumPy arrays with no per-token Python work.

An :class:`EncodedChunk` is the unit the columnar pipeline moves around: a
chunk of encoded token ids, an optional parallel weight column, and a
handle to the codec that owns the vocabulary.  Chunks are immutable and
cheap to slice, so the service layer can hash-partition one chunk into
per-shard sub-chunks without re-encoding anything.

Thread-safety: interning mutates the codec and must happen on one producer
thread at a time; *reading* (``decode`` / ``fingerprints``) is safe
concurrently with the GIL, which is exactly the split the sharded service
uses (producers encode, shard workers only read).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.vectorized import shard_array, stable_fingerprint

Item = Hashable

_EMPTY_F64 = np.empty(0, dtype=np.float64)
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class TokenAdmissionError(ValueError):
    """A token the wire format cannot carry reached an ingest boundary."""


def validate_token(item: Item) -> Item:
    """Admission control: the single definition of a carriable token.

    Wire format v2 carries ``str``, ``bytes``, ``bool``, ``int``, finite or
    infinite ``float``, ``None`` and tuples of those (nested arbitrarily).
    Everything else -- including ``NaN``, which can never be queried back
    because ``NaN != NaN`` -- raises :class:`TokenAdmissionError` so a bad
    token fails synchronously at the boundary that received it instead of
    poisoning a snapshot serialisation later.

    NumPy scalars validate as their unboxed Python values.  Returns ``item``
    unchanged so callers can validate inline.
    """
    if item is None or isinstance(item, (str, bytes, bool, int)):
        return item
    if isinstance(item, float):
        if item != item:  # NaN: no future query could ever match it
            raise TokenAdmissionError(
                "NaN tokens are not admissible: NaN != NaN, so the token "
                "could never be queried or merged back"
            )
        return item
    if isinstance(item, tuple):
        for element in item:
            validate_token(element)
        return item
    if isinstance(item, np.generic):
        validate_token(item.item())
        return item
    raise TokenAdmissionError(
        "tokens must be str, bytes, int, float, bool, None or tuples of "
        f"those to cross the ingest boundary; got {type(item).__name__}"
    )


def validate_tokens(items: Sequence[Item]) -> None:
    """Validate one ingest batch, amortised to once per *distinct* token.

    The batch-shaped admission check used by the plain-sequence ingest
    entry points that do not intern (:mod:`repro.streams.batched`, the
    service client).  Integer, boolean and string NumPy
    arrays are admissible by dtype alone; float arrays need only a
    vectorised NaN scan; anything else is reduced to its distinct tokens
    with one C-speed ``set()`` pass, so a skewed chunk pays a few
    :func:`validate_token` calls instead of one per occurrence.  Encoded
    chunks skip this entirely -- their codec validated at intern time.
    """
    if isinstance(items, np.ndarray):
        kind = items.dtype.kind
        if kind in ("i", "u", "b", "U", "S"):
            return
        if kind == "f":
            if items.size and bool(np.isnan(items).any()):
                raise TokenAdmissionError(
                    "NaN tokens are not admissible: NaN != NaN, so the "
                    "token could never be queried or merged back"
                )
            return
        items = items.tolist()
    try:
        distinct = set(items)
    except TypeError:
        for item in items:
            try:
                hash(item)
            except TypeError as error:
                raise TokenAdmissionError(
                    f"unhashable token of type {type(item).__name__} cannot "
                    "be ingested"
                ) from error
        raise
    for item in distinct:
        validate_token(item)


class TokenCodec:
    """Interns arbitrary hashable items into dense ``int64`` ids.

    Ids are assigned in first-appearance order starting from 0.  The codec
    caches each distinct item's :func:`~repro.engine.vectorized.stable_fingerprint`
    in a growable ``uint64`` column, so the (comparatively expensive)
    FNV-1a fallback for strings and other non-integer tokens is paid once
    per *vocabulary entry* rather than once per stream token.

    Token identity is dict equality, exactly as in every aggregation path
    of this library: ``==``-equal tokens of different types (``0`` and
    ``0.0``, ``1`` and ``True``) collapse onto the first-seen
    representative -- here for the codec's whole lifetime, where a plain
    ``update_batch`` collapses them per chunk.

    The vocabulary grows without bound -- ``O(distinct tokens)`` memory,
    unlike the ``O(m)``-word summaries it feeds.  A codec is therefore for
    *bounded-vocabulary* streams (ranked ids, bounded key spaces, interned
    entity names); for unbounded-cardinality token streams (unique request
    ids), either rotate codecs periodically or stay on the plain
    ``update_batch`` path, whose aggregation state is per chunk.

    Examples
    --------
    >>> codec = TokenCodec()
    >>> codec.encode(["a", "b", "a"]).tolist()
    [0, 1, 0]
    >>> codec.decode([1, 0])
    ['b', 'a']
    >>> len(codec)
    2

    The codec is also the system's *admission boundary*: unless
    ``validate=False``, every vocabulary miss runs :func:`validate_token`,
    so a token the wire format cannot carry is rejected synchronously by
    whichever ingest path first sees it -- and the check is paid once per
    vocabulary entry, not once per token occurrence.
    """

    def __init__(
        self,
        vocabulary: Iterable[Item] | None = None,
        validate: bool = True,
    ) -> None:
        self._validate = validate
        self._ids: dict[Item, int] = {}
        self._items: list[Item] = []
        self._fingerprints = np.empty(1024, dtype=np.uint64)
        # Sorted sidecar mapping int64 token *values* to their ids, so
        # integer arrays encode with one vectorised searchsorted instead of
        # one dict lookup per token.  Newly interned ints buffer in the
        # pending lists and merge in on the next array encode.
        self._int_values = np.empty(0, dtype=np.int64)
        self._int_ids = np.empty(0, dtype=np.int64)
        self._pending_int_values: list[int] = []
        self._pending_int_ids: list[int] = []
        # Dense value -> id lookup table, built when the int vocabulary's
        # value span is compact (e.g. rank-style ids): a plain gather there
        # is far cheaper than searchsorted.  ``None`` = stale; once the span
        # grows past the density bound it can only widen, so the table is
        # permanently disabled.
        self._int_lut: np.ndarray | None = None
        self._int_lut_min = 0
        self._int_lut_disabled = False
        if vocabulary is not None:
            for item in vocabulary:
                self.intern(item)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._ids

    def intern(self, item: Item) -> int:
        """Return the dense id for ``item``, assigning one if new.

        NumPy scalars are unboxed so an ``np.int64(7)`` and a plain ``7``
        intern to the same id (and the same fingerprint the scalar pipeline
        would compute for the unboxed value); since NumPy scalars hash and
        compare equal to their unboxed values, the unboxing only ever
        matters on a vocabulary miss.

        Vocabulary misses pass admission control (:func:`validate_token`)
        unless the codec was built with ``validate=False``.
        """
        try:
            token_id = self._ids.get(item)
        except TypeError as error:
            raise TokenAdmissionError(
                f"unhashable token of type {type(item).__name__} cannot be "
                "ingested"
            ) from error
        if token_id is not None:
            return token_id
        if isinstance(item, np.generic):
            item = item.item()
        if self._validate:
            validate_token(item)
        token_id = len(self._items)
        self._ids[item] = token_id
        self._items.append(item)
        if token_id >= self._fingerprints.size:
            grown = np.empty(self._fingerprints.size * 2, dtype=np.uint64)
            grown[:token_id] = self._fingerprints[:token_id]
            self._fingerprints = grown
        self._fingerprints[token_id] = stable_fingerprint(item)
        if type(item) is int and _INT64_MIN <= item <= _INT64_MAX:
            self._pending_int_values.append(item)
            self._pending_int_ids.append(token_id)
        return token_id

    def _int_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted (values, ids) sidecar, merging in any pending interns."""
        if self._pending_int_values:
            values = np.concatenate(
                [self._int_values, np.array(self._pending_int_values, dtype=np.int64)]
            )
            ids = np.concatenate(
                [self._int_ids, np.array(self._pending_int_ids, dtype=np.int64)]
            )
            order = np.argsort(values, kind="stable")
            self._int_values = values[order]
            self._int_ids = ids[order]
            self._pending_int_values.clear()
            self._pending_int_ids.clear()
            self._int_lut = None
        return self._int_values, self._int_ids

    def _refresh_int_lut(self, values: np.ndarray, ids: np.ndarray) -> None:
        """(Re)build the dense lookup table when the value span is compact."""
        span = int(values[-1]) - int(values[0]) + 1
        if span > max(1024, 8 * values.size):
            self._int_lut_disabled = True
            return
        lut = np.full(span, -1, dtype=np.int64)
        lut[values - values[0]] = ids
        self._int_lut = lut
        self._int_lut_min = int(values[0])

    def encode(self, items: Sequence[Item]) -> np.ndarray:
        """Encode a sequence of items into an ``int64`` id array.

        Integer/boolean NumPy arrays -- and plain sequences of Python ints,
        detected by sniffing the first element and converting at C speed --
        take a vectorised path: ids come from one ``searchsorted`` against
        the sorted int sidecar, with only vocabulary *misses* paying a
        Python ``intern`` call.  A saturated vocabulary therefore encodes a
        chunk with no per-token Python work at all.  Everything else pays
        one ``intern`` call per token.
        """
        if (
            not isinstance(items, np.ndarray)
            and len(items)
            and type(items[0]) is int
        ):
            try:
                converted = np.asarray(items)
            except (TypeError, ValueError, OverflowError):
                converted = None
            # Only trust an *inferred* integer dtype: mixed int/float lists
            # infer float64 and int/str lists infer strings, both of which
            # would silently change token identity if forced to int64.
            if converted is not None and converted.dtype.kind in ("i", "u"):
                items = converted
        if isinstance(items, np.ndarray) and items.dtype.kind in ("i", "u", "b"):
            return self._encode_int_array(items)
        n = len(items)
        return np.fromiter(map(self.intern, items), dtype=np.int64, count=n)

    def _encode_int_array(self, items: np.ndarray) -> np.ndarray:
        """Vectorised id lookup for an integer/boolean array via the sidecar."""
        if items.dtype.kind == "b":
            # Bools collapse onto the ints 0/1, exactly as dict aggregation
            # (where True == 1) and stable_fingerprint(True) == 1 already do.
            items = items.astype(np.int64)
        elif items.dtype.kind == "u" and items.size and int(items.max()) > _INT64_MAX:
            # Tokens beyond int64: rare enough to take the scalar loop.
            return np.fromiter(
                map(self.intern, items.tolist()), dtype=np.int64, count=items.size
            )
        items = items.astype(np.int64, copy=False).ravel()
        out, hit = self._sidecar_lookup(items)
        if not hit.all():
            # Intern the newcomers in first-appearance order, keeping the id
            # assignment identical to the scalar loop's.
            missing, first_index = np.unique(items[~hit], return_index=True)
            for value in missing[np.argsort(first_index)].tolist():
                self.intern(value)
            out, hit = self._sidecar_lookup(items)
        if not hit.all():
            # Values equal to a differently-typed vocabulary entry (True,
            # 1.0, ...) dict-hit in intern and never enter the sidecar.
            # Register the alias's resolved id so every future chunk stays
            # on the vectorised path, then gather once more.
            for value in np.unique(items[~hit]).tolist():
                self._pending_int_values.append(value)
                self._pending_int_ids.append(self.intern(value))
            out, hit = self._sidecar_lookup(items)
        return out

    def _sidecar_lookup(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate id per token plus a per-token hit mask (misses get id 0)."""
        values, ids = self._int_tables()
        if values.size == 0:
            return np.zeros(items.shape, dtype=np.int64), np.zeros(items.shape, dtype=bool)
        if self._int_lut is None and not self._int_lut_disabled:
            self._refresh_int_lut(values, ids)
        lut = self._int_lut
        if lut is not None:
            # Wrapped (overflowing) offsets come out negative, so out-of-span
            # tokens can never alias into the table.
            offsets = items - np.int64(self._int_lut_min)
            in_span = (offsets >= 0) & (offsets < lut.size)
            candidates = lut[np.where(in_span, offsets, 0)]
            hit = in_span & (candidates >= 0)
            return np.where(hit, candidates, 0), hit
        positions = np.minimum(np.searchsorted(values, items), values.size - 1)
        hit = values[positions] == items
        return np.where(hit, ids[positions], 0), hit

    def encode_chunk(
        self, items: Sequence[Item], weights: Sequence[float] | None = None
    ) -> EncodedChunk:
        """Encode one batch of tokens (and optional weights) into a chunk.

        ``encode`` always returns a freshly allocated id column and the
        weights are snapshotted here, so this skips the public
        constructor's defensive copies (one fewer memcpy per chunk on the
        ingest hot path) while enforcing the same weight validation.
        """
        ids = self.encode(items)
        if weights is None:
            return _trusted_chunk(ids, self, None)
        weights = np.array(weights, dtype=np.float64)
        _validate_chunk_weights(ids, weights)
        return _trusted_chunk(ids, self, weights)

    def item_for(self, token_id: int) -> Item:
        """The item owning dense id ``token_id``."""
        return self._items[token_id]

    def decode(self, ids: Sequence[int]) -> list[Item]:
        """Decode an id sequence back into the original items."""
        table = self._items
        return [table[token_id] for token_id in np.asarray(ids, dtype=np.int64).tolist()]

    def fingerprints(self, ids: np.ndarray) -> np.ndarray:
        """Gather the cached ``uint64`` fingerprints for an id array."""
        return self._fingerprints[: len(self._items)][np.asarray(ids, dtype=np.int64)]

    def vocabulary(self) -> list[Item]:
        """All interned items in id order (id ``i`` is ``vocabulary()[i]``)."""
        return list(self._items)

    @classmethod
    def from_vocabulary(cls, items: Iterable[Item]) -> TokenCodec:
        """Rebuild a codec from a vocabulary list (wire-format round trip)."""
        return cls(vocabulary=items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenCodec(vocabulary={len(self._items)})"


@dataclass(frozen=True)
class EncodedChunk:
    """A columnar batch of stream tokens: dense ids + optional weights.

    Attributes
    ----------
    ids:
        ``int64`` array of codec ids, one per token, in arrival order.
    codec:
        The :class:`TokenCodec` owning the vocabulary the ids refer to.
    weights:
        Optional ``float64`` array parallel to ``ids``; ``None`` means every
        token has unit weight.  Weights are validated at construction to be
        finite and non-negative, so a chunk can cross thread and wire
        boundaries without re-validation: the shard layer and the window
        ring take chunks only and admit nothing themselves.
    """

    ids: np.ndarray
    codec: TokenCodec
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Copy, don't view: a chunk may outlive the producer's buffers,
        # and the validation below must not be bypassable by
        # post-construction mutation.  (Internal construction via
        # ``encode_chunk``/``select`` uses a trusted path that skips this
        # constructor, so the ingest and fan-out hot paths pay no
        # redundant copies or scans.)
        ids = np.array(self.ids, dtype=np.int64)
        object.__setattr__(self, "ids", ids)
        if self.weights is not None:
            weights = np.array(self.weights, dtype=np.float64)
            _validate_chunk_weights(ids, weights)
            object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return int(self.ids.size)

    def __iter__(self) -> Iterator[Item]:
        table = self.codec._items
        return iter([table[token_id] for token_id in self.ids])

    def items(self) -> list[Item]:
        """Decode the chunk back into its original items (arrival order)."""
        return self.codec.decode(self.ids)

    def fingerprints(self) -> np.ndarray:
        """Per-token ``uint64`` fingerprints (codec cache gather, no hashing)."""
        return self.codec.fingerprints(self.ids)

    @property
    def total_weight(self) -> float:
        """Total weight carried by the chunk (``F1`` of the chunk)."""
        if self.weights is None:
            return float(self.ids.size)
        return float(self.weights.sum())

    def effective_tokens(self) -> int:
        """Tokens a sequential ``update`` loop would record (zero weights excluded)."""
        if self.weights is None:
            return int(self.ids.size)
        return int(np.count_nonzero(self.weights))

    def aggregate(self) -> tuple[np.ndarray, np.ndarray]:
        """Collapse the chunk into ``(distinct ids, total weights)`` columns.

        The columnar analogue of :func:`repro.algorithms.base.aggregate_batch`:
        ids are returned sorted (``np.unique`` order) with zero-total
        entries dropped, weights as ``float64``.  The result is memoised --
        chunks are immutable, and the service layer may aggregate the same
        chunk once to route it and once to apply it.
        """
        cached = self.__dict__.get("_aggregate_cache")
        if cached is not None:
            return cached
        vocabulary_size = len(self.codec)
        if self.ids.size == 0:
            result = (self.ids, _EMPTY_F64)
        elif vocabulary_size <= 4 * self.ids.size + 1024:
            # Ids are dense in [0, vocabulary_size), so a bincount beats the
            # sort inside np.unique whenever the vocabulary is not vastly
            # larger than the chunk.
            sums = np.bincount(self.ids, weights=self.weights, minlength=vocabulary_size)
            values = np.flatnonzero(sums)
            result = (values, sums[values].astype(np.float64, copy=False))
        elif self.weights is None:
            values, counts = np.unique(self.ids, return_counts=True)
            result = (values, counts.astype(np.float64))
        else:
            values, inverse = np.unique(self.ids, return_inverse=True)
            sums = np.zeros(len(values), dtype=np.float64)
            np.add.at(sums, inverse.reshape(-1), self.weights)
            keep = sums > 0.0
            result = (values[keep], sums[keep])
        object.__setattr__(self, "_aggregate_cache", result)
        return result

    def select(self, indices: np.ndarray) -> EncodedChunk:
        """A sub-chunk of the rows at ``indices`` (same codec, same order).

        Slices of an already-validated chunk are validated by construction,
        so this skips the ``__post_init__`` weight scans -- the shard
        fan-out calls ``select`` once per shard per chunk.
        """
        return _trusted_chunk(
            self.ids[indices],
            self.codec,
            None if self.weights is None else self.weights[indices],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        weighted = "weighted" if self.weights is not None else "unit"
        return f"EncodedChunk(tokens={self.ids.size}, {weighted})"


def _validate_chunk_weights(ids: np.ndarray, weights: np.ndarray) -> None:
    """The one definition of chunk weight validity (shared by all builders)."""
    if len(weights) != len(ids):
        raise ValueError("ids and weights must have the same length")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and non-negative")


def _trusted_chunk(
    ids: np.ndarray, codec: TokenCodec, weights: np.ndarray | None
) -> EncodedChunk:
    """Build a chunk from freshly allocated, already-validated columns.

    Bypasses ``__post_init__`` (defensive copies + weight scans); callers
    must guarantee the arrays are unaliased and the weights validated.
    """
    chunk = object.__new__(EncodedChunk)
    object.__setattr__(chunk, "ids", ids)
    object.__setattr__(chunk, "codec", codec)
    object.__setattr__(chunk, "weights", weights)
    return chunk


def require_chunk(value: object, consumer: str) -> None:
    """Admit only encoded chunks at ``consumer``, a layer below the wire.

    The shard layer and the window ring take tokens the codec already
    admitted; a plain sequence raises ``TypeError`` here, before any state
    changes, instead of skipping admission.
    """
    if not isinstance(value, EncodedChunk):
        raise TypeError(
            f"{consumer} takes an EncodedChunk, got {type(value).__name__}; "
            "encode tokens with TokenCodec.encode_chunk"
        )


def partition_chunk(chunk: EncodedChunk, num_shards: int) -> list[EncodedChunk]:
    """Hash-partition a chunk into ``num_shards`` sub-chunks (same codec).

    The one placement kernel, shared by in-process sharding and crash
    recovery (:func:`repro.service.sharding.partition_batch`) and cross-site
    partitioning (:func:`repro.distributed.partition.hash_partition_chunk`),
    so both layers route with exactly the same placement: one vectorised
    ``shard_array`` call over the chunk's cached fingerprints.  Shards that
    receive no tokens get an empty sub-chunk, preserving arrival order
    within each shard.
    """
    shard_ids = shard_array(chunk.fingerprints(), num_shards)
    return [
        chunk.select(np.flatnonzero(shard_ids == shard))
        for shard in range(num_shards)
    ]
