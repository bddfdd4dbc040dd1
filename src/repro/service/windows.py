"""Sliding-window heavy hitters over ring-buffered bucket summaries.

A scenario the batch experiments cannot express: traffic arrives forever,
and queries ask about *recent* traffic only ("heavy hitters of the last
hour").  The classical answer -- and the one the paper's mergeability
results make rigorous -- is bucketed windows: time is cut into buckets,
each bucket gets its own counter summary, expired buckets are dropped from
a ring, and a window query merges the live buckets it covers with
:func:`~repro.core.merging.merge_summaries`.

Guarantee semantics of a window answer: every bucket summary satisfies the
``(A, B)`` k-tail guarantee on its own sub-stream, so the merged answer
over the window satisfies the ``(3A, A+B)`` guarantee of Theorem 11 with
respect to the window's combined frequency vector (a single-bucket window
keeps the sharp ``(A, B)`` constants -- no merge happens).  The service's
buckets are :class:`~repro.algorithms.array_summary.ArraySummary`
instances, which merge in one call to their own kernel
(:meth:`~repro.algorithms.array_summary.ArraySummary.merge`) instead of a
replay; that kernel keeps ``(1, 1)``, but answers advertise ``(3A, A+B)``
until an oracle tier checks the tighter constants.  The window boundary
itself is exact at bucket granularity: answers cover whole buckets, never
fractions.

Buckets take admitted chunks only (:meth:`WindowedSummarizer.update_batch`):
the codec that built a chunk admitted its tokens and weights, so bucket
copies travel through the v2 wire format and windows answer queries over
structured tokens (flow 5-tuples, bytes, bools, None) exactly like the
snapshot path does.
"""

from __future__ import annotations

# repro-lint: hot-path

import collections
import threading
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

from repro import serialization
from repro.algorithms.base import FrequencyEstimator, Item
from repro.engine.codec import EncodedChunk, require_chunk
from repro.core.bounds import k_tail_bound
from repro.core.merging import merge_summaries
from repro.core.tail_guarantee import GuaranteeCheck, TailGuarantee
from repro.metrics.error import max_error, residual

EstimatorFactory = Callable[[], FrequencyEstimator]


@dataclass(frozen=True)
class WindowAnswer:
    """The merged summary of one sliding-window query, with its guarantee.

    ``estimator`` is ``None`` exactly when the window contained no traffic
    (the empty-window edge case); every query method then returns the empty
    answer rather than raising.
    """

    estimator: FrequencyEstimator | None
    k: int
    constants: TailGuarantee
    window: int
    buckets_merged: int
    stream_length: float
    oldest_bucket: int | None
    newest_bucket: int | None

    @property
    def empty(self) -> bool:
        return self.estimator is None

    def estimate(self, item: Item) -> float:
        """Estimated frequency of ``item`` within the window."""
        if self.estimator is None:
            return 0.0
        return self.estimator.estimate(item)

    def top_k(self, k: int) -> list[tuple[Item, float]]:
        """The ``k`` heaviest items of the window."""
        if self.estimator is None:
            return []
        return self.estimator.top_k(k)

    def heavy_hitters(self, phi: float) -> list[tuple[Item, float]]:
        """Items above ``phi`` of the window's total weight."""
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must lie in (0, 1), got {phi}")
        if self.estimator is None:
            return []
        threshold = phi * self.stream_length
        ranked = self.estimator.top_k(len(self.estimator))
        return [(item, count) for item, count in ranked if count > threshold]

    def bound(self, frequencies: Mapping[Item, float]) -> float:
        """The k-tail bound for this answer given the window's true vector."""
        if self.estimator is None:
            return 0.0
        return k_tail_bound(
            residual(frequencies, self.k),
            self.estimator.num_counters,
            self.k,
            a=self.constants.a,
            b=self.constants.b,
        )

    def check(self, frequencies: Mapping[Item, float]) -> GuaranteeCheck:
        """Verify the answer against an exact recount of the window."""
        observed = (
            0.0 if self.estimator is None else max_error(frequencies, self.estimator)
        )
        return GuaranteeCheck(
            observed=observed,
            bound=self.bound(frequencies),
            description=(
                f"windowed k-tail guarantee (A={self.constants.a}, "
                f"B={self.constants.b}, k={self.k}, "
                f"buckets={self.buckets_merged}/{self.window})"
            ),
        )


class _Bucket:
    __slots__ = ("bucket_id", "estimator")

    def __init__(self, bucket_id: int, estimator: FrequencyEstimator) -> None:
        self.bucket_id = bucket_id
        self.estimator = estimator


class WindowedSummarizer:
    """Ring-buffered per-bucket summaries answering sliding-window queries.

    Parameters
    ----------
    make_estimator:
        Factory for each bucket's summary and for the merge target.
    num_buckets:
        Ring capacity: how many most-recent buckets stay queryable.  A
        bucket older than that is expired (dropped) by :meth:`advance`.
    k:
        Default tail parameter attached to window answers.

    Examples
    --------
    >>> from repro.algorithms import SpaceSaving
    >>> from repro.engine.codec import TokenCodec
    >>> codec = TokenCodec()
    >>> windowed = WindowedSummarizer(lambda: SpaceSaving(16), num_buckets=3)
    >>> for bucket in range(4):
    ...     windowed.update_batch(codec.encode_chunk([f"item-{bucket}"] * (bucket + 1)))
    ...     _ = windowed.advance()
    >>> windowed.query(window=3).estimate("item-0")  # bucket 0 expired
    0.0
    >>> windowed.query(window=3).estimate("item-3")
    4.0
    """

    def __init__(
        self,
        make_estimator: EstimatorFactory,
        num_buckets: int,
        k: int = 8,
    ) -> None:
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.make_estimator = make_estimator
        self.num_buckets = num_buckets
        self.k = k
        self._lock = threading.Lock()
        self._buckets: collections.deque[_Bucket] = collections.deque(
            [_Bucket(0, make_estimator())], maxlen=num_buckets
        )
        #: Lifetime count of bucket rotations, read by the metrics plane.
        self.advances_total = 0

    # ------------------------------------------------------------------ #
    # Ingest / time
    # ------------------------------------------------------------------ #

    @property
    def current_bucket(self) -> int:
        """The id of the bucket currently receiving traffic."""
        with self._lock:
            return self._buckets[-1].bucket_id

    def update_batch(self, chunk: EncodedChunk) -> None:
        """Record an admitted chunk in the current bucket.

        The chunk's codec admitted its tokens and weights at intern time,
        so every bucket copy can cross the wire format at query time.
        Anything but an :class:`~repro.engine.codec.EncodedChunk` raises
        ``TypeError`` before the bucket changes.
        """
        require_chunk(chunk, "WindowedSummarizer.update_batch")
        with self._lock:
            self._buckets[-1].estimator.update_batch(chunk)

    def advance(self, steps: int = 1) -> int:
        """Close the current bucket and open ``steps`` new ones.

        Appending to the full ring drops the oldest bucket -- that is the
        expiry mechanism.  Only the newest ``num_buckets`` of the opened
        buckets can survive, so at most that many are built: the cost is
        bounded by the ring, not by ``steps``.  Returns the new current
        bucket id.
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        with self._lock:
            newest = self._buckets[-1].bucket_id + steps
            for bucket_id in range(newest - min(steps, self.num_buckets) + 1, newest + 1):
                self._buckets.append(_Bucket(bucket_id, self.make_estimator()))
            self.advances_total += steps
            return newest

    # ------------------------------------------------------------------ #
    # Durability hooks (checkpoint / crash recovery)
    # ------------------------------------------------------------------ #

    def bucket_states(self) -> list[tuple[int, FrequencyEstimator]]:
        """``(bucket id, estimator)`` for every live bucket, oldest first.

        The estimators are the ring's own instances -- only read them while
        no ingest is in flight (recovery does; a running service uses
        :meth:`bucket_payloads` instead).
        """
        with self._lock:
            return [(bucket.bucket_id, bucket.estimator) for bucket in self._buckets]

    def bucket_payloads(self) -> list[tuple[int, dict]]:
        """Consistent serialised copies of every live bucket (oldest first).

        Copied under the ingest lock at a batch boundary and serialised
        after it is released -- the write-ahead log's checkpoint records
        these so recovery restores the ring exactly, ids included.
        """
        with self._lock:
            copies = [(bucket.bucket_id, bucket.estimator.copy()) for bucket in self._buckets]
        return [(bucket_id, serialization.dump(copy)) for bucket_id, copy in copies]

    def restore_buckets(
        self, states: Sequence[tuple[int, FrequencyEstimator]]
    ) -> None:
        """Replace the ring with recovered ``(bucket id, estimator)`` state.

        Bucket ids must be strictly increasing (ring order); at most
        ``num_buckets`` newest entries are kept, matching what the ring
        itself would have retained.
        """
        entries = list(states)
        if not entries:
            raise ValueError("restore_buckets requires at least one bucket")
        ids = [bucket_id for bucket_id, _ in entries]
        if any(b <= a for a, b in zip(ids, ids[1:], strict=False)):
            raise ValueError(f"bucket ids must be strictly increasing, got {ids}")
        with self._lock:
            self._buckets = collections.deque(
                [
                    _Bucket(bucket_id, estimator)
                    for bucket_id, estimator in entries[-self.num_buckets :]
                ],
                maxlen=self.num_buckets,
            )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def live_buckets(self) -> list[tuple[int, float]]:
        """(bucket id, bucket weight) for every bucket still in the ring."""
        with self._lock:
            return [
                (bucket.bucket_id, bucket.estimator.stream_length)
                for bucket in self._buckets
            ]

    def query(self, window: int | None = None, k: int | None = None) -> WindowAnswer:
        """Merge the last ``window`` buckets into one certified answer.

        ``window`` defaults to the full ring; it may not exceed the ring
        capacity (older buckets are gone).  Buckets that saw no traffic
        contribute nothing; if *no* covered bucket saw traffic the answer
        is empty (``answer.empty``) rather than an error.
        """
        window = self.num_buckets if window is None else window
        k = self.k if k is None else k
        if not 1 <= window <= self.num_buckets:
            raise ValueError(
                f"window must lie in [1, {self.num_buckets}], got {window}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # Only the structural copies happen under the ingest lock; merging
        # them runs outside it so concurrent ingestion stalls no longer
        # than one table copy per bucket.
        with self._lock:
            newest = self._buckets[-1].bucket_id
            live = [
                (bucket.bucket_id, bucket.estimator.copy())
                for bucket in self._buckets
                if bucket.bucket_id > newest - window
                and bucket.estimator.stream_length > 0
            ]
        if not live:
            return WindowAnswer(
                estimator=None,
                k=k,
                constants=TailGuarantee(a=0.0, b=0.0),
                window=window,
                buckets_merged=0,
                stream_length=0.0,
                oldest_bucket=None,
                newest_bucket=None,
            )
        total = float(sum(copy.stream_length for _, copy in live))
        if len(live) == 1:
            # No merge happens, so the bucket's own sharp (A, B) constants
            # apply directly to the single-bucket window.
            bucket_id, copy = live[0]
            try:
                constants = TailGuarantee.for_algorithm(copy)
            except ValueError:  # no proved constants (e.g. ExactCounter)
                constants = TailGuarantee()
            return WindowAnswer(
                estimator=copy,
                k=k,
                constants=constants,
                window=window,
                buckets_merged=1,
                stream_length=total,
                oldest_bucket=bucket_id,
                newest_bucket=bucket_id,
            )
        merge = merge_summaries(
            [copy for _, copy in live],
            k=k,
            make_estimator=self.make_estimator,
        )
        return WindowAnswer(
            estimator=merge.estimator,
            k=k,
            constants=merge.merged_constants,
            window=window,
            buckets_merged=len(live),
            stream_length=total,
            oldest_bucket=min(bucket_id for bucket_id, _ in live),
            newest_bucket=max(bucket_id for bucket_id, _ in live),
        )
