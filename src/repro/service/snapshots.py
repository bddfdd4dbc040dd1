"""Versioned, queryable snapshots of a sharded summarizer.

The query side of the service: shard summaries are write-hot and mutate
concurrently, so queries are answered from immutable *snapshots* instead.
A snapshot is the union of consistent per-shard copies
(:class:`~repro.core.merging.DisjointUnion`): the shards hash-partition the
key space, so each item is answered by its owner shard alone and the
snapshot carries the shards' own ``(A, B)`` k-tail guarantee -- ``(1, 1)``
for the service's :class:`~repro.algorithms.array_summary.ArraySummary`
shards, as for SPACESAVING and FREQUENT -- with no Theorem 11 merge.
Copying an ``ArraySummary`` shares its arrays (no update writes into
them), so a refresh costs microseconds per shard before the union.  It also holds
the bookkeeping a query engine needs (true total stream weight at snapshot
time, per-shard weights, version number, and the wire cost of persisting
it).

:class:`SnapshotManager` builds snapshots on demand (:meth:`refresh`) or on
a fixed cadence (:meth:`start`), keeps the latest one for queries, and can
persist every version through :func:`repro.serialization.dump_bytes`
(optionally gzipped) so a restarted service -- or an offline analyst -- can
reload any version with :meth:`SnapshotManager.load`.  A persisted file
holds the snapshot's union itself (the shard copies as the parts of one
``DisjointUnion`` payload), so a reloaded file answers every query exactly
as the served snapshot did, under the same ``(A, B)`` bound.

Persistence rides wire format v2: structured tokens (flow 5-tuples, bytes,
bools, None) admitted at the ingest boundary serialise losslessly, and any
snapshot file written by a v1 build of this library still loads.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from collections.abc import Mapping

from repro import serialization
from repro.algorithms.base import FrequencyEstimator, Item
from repro.core.merging import MergeResult, merge_summaries
from repro.core.tail_guarantee import GuaranteeCheck, TailGuarantee
from repro.service.sharding import ShardedSummarizer

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.service.tracing import Trace


@dataclass(frozen=True)
class Snapshot:
    """An immutable, queryable view of the service at one instant.

    Queries served from a snapshot inherit the shards' k-tail guarantee:
    if every shard summary satisfies the ``(A, B)`` guarantee with ``m``
    counters, every estimate here is within ``A * F1_res(k) / (m - Bk)`` of
    the true total frequency, ``F1_res(k)`` taken over the whole stream.
    """

    version: int
    merge: MergeResult
    stream_length: float
    shard_lengths: tuple[float, ...]
    path: Path | None = None
    wire: serialization.WireCost | None = None

    @property
    def estimator(self) -> FrequencyEstimator:
        """The union of shard copies answering this snapshot's queries."""
        return self.merge.estimator

    @property
    def constants(self) -> TailGuarantee:
        """The shards' ``(A, B)`` guarantee constants."""
        return self.merge.merged_constants

    @property
    def k(self) -> int:
        return self.merge.k

    @property
    def num_shards(self) -> int:
        return self.merge.num_sources

    # ------------------------------------------------------------------ #
    # Query engine
    # ------------------------------------------------------------------ #

    def estimate(self, item: Item) -> float:
        """Point query: estimated total frequency of ``item``."""
        return self.merge.estimator.estimate(item)

    @cached_property
    def _ranking(self) -> list[tuple[Item, float]]:
        """Every shard counter, ranked as the union estimator's ``top_k``.

        Sorted on the first ranked query, not at refresh: a snapshot
        nobody ranks never pays for it, and every later query slices.
        """
        estimator = self.merge.estimator
        return estimator.top_k(len(estimator))

    def top_k(self, k: int) -> list[tuple[Item, float]]:
        """The ``k`` largest estimated frequencies."""
        return self._ranking[:k]

    def heavy_hitters(self, phi: float) -> list[tuple[Item, float]]:
        """Items estimated above ``phi`` of the *true* total stream weight.

        Thresholds against the recorded total ingest weight rather than the
        shards' internal counter mass (the latter undercounts by whatever
        the shards had already discarded).
        """
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must lie in (0, 1), got {phi}")
        threshold = phi * self.stream_length
        return [(item, count) for item, count in self._ranking if count > threshold]

    def bound(self, frequencies: Mapping[Item, float]) -> float:
        """The snapshot's k-tail error bound evaluated on true frequencies."""
        return self.merge.bound(frequencies)

    def check(self, frequencies: Mapping[Item, float]) -> GuaranteeCheck:
        """Verify the snapshot's guarantee against true combined frequencies."""
        return self.merge.check(frequencies)


@dataclass
class SnapshotManager:
    """Builds, serves and persists versioned snapshots of a sharded ingest.

    Parameters
    ----------
    sharded:
        The live :class:`~repro.service.sharding.ShardedSummarizer`.
    k:
        Tail parameter of the guarantee attached to every snapshot.
    directory:
        When set, every snapshot version is persisted here as
        ``snapshot-<version>.json`` (``.json.gz`` with ``compress=True``).
    compress:
        Gzip persisted snapshots (and report the compressed wire cost).

    Every refresh combines the shard copies with exactly one
    ``merge_summaries(..., disjoint=True)`` call, which takes their union
    and keeps the shards' constants.  Persisting a snapshot writes that
    union as it is: no Theorem 11 replay anywhere on this path.
    """

    sharded: ShardedSummarizer
    k: int
    directory: str | Path | None = None
    compress: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _refresh_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _latest: Snapshot | None = field(default=None, repr=False)
    _version: int = field(default=0, repr=False)
    _ticker: threading.Thread | None = field(default=None, repr=False)
    _stop: threading.Event = field(default_factory=threading.Event, repr=False)
    #: The exception of the most recent failed periodic refresh (None when
    #: the last tick succeeded); the stats op surfaces it to operators.
    last_refresh_error: BaseException | None = field(default=None, repr=False)
    #: Observability bookkeeping, read by the metrics plane at scrape time:
    #: wall-clock instant and duration of the most recent successful
    #: refresh, plus a lifetime refresh count.  ``snapshot age`` -- the
    #: operator's staleness signal -- is ``time.time() - last_refresh_wall``.
    last_refresh_wall: float | None = field(default=None, repr=False)
    last_refresh_seconds: float | None = field(default=None, repr=False)
    refreshes_total: int = field(default=0, repr=False)
    #: Periodic refreshes that failed (and were retried); exposed as
    #: repro_snapshot_refresh_errors_total by the metrics plane.
    refresh_errors_total: int = field(default=0, repr=False)

    def snapshot_age_seconds(self) -> float | None:
        """Seconds since the latest snapshot was built (None before any)."""
        with self._lock:
            if self.last_refresh_wall is None:
                return None
            return max(0.0, time.time() - self.last_refresh_wall)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.directory is not None:
            self.directory = Path(self.directory)
            self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Building snapshots
    # ------------------------------------------------------------------ #

    def refresh(self, drain: bool = False, trace: Trace | None = None) -> Snapshot:
        """Combine consistent shard copies into a new versioned snapshot.

        With ``drain=True`` the shards are flushed first, so the
        snapshot reflects everything ingested before the call -- the
        barrier end-to-end tests (and graceful shutdown) want.  Without it
        the snapshot is simply a consistent cut at batch boundaries while
        ingestion keeps running.

        A sampled ``trace`` receives one ``snapshot_refresh`` span
        covering the copy, the union (and persistence, when configured).
        """
        if drain:
            self.sharded.flush()
        started = time.perf_counter()
        # _refresh_lock serialises whole rebuilds (periodic ticker vs manual
        # refreshes); _lock is only held for the version bump and the final
        # swap, so readers of `latest` never wait on a copy or a disk write.
        with self._refresh_lock:
            copies = self.sharded.snapshot_summaries()
            merge = merge_summaries(copies, k=self.k, disjoint=True)
            with self._lock:
                self._version += 1
                version = self._version
            shard_lengths = tuple(copy.stream_length for copy in copies)
            snapshot = Snapshot(
                version=version,
                merge=merge,
                stream_length=float(sum(shard_lengths)),
                shard_lengths=shard_lengths,
            )
            if self.directory is not None:
                snapshot = self._persist(snapshot)
            with self._lock:
                self._latest = snapshot
                self.last_refresh_wall = time.time()
                self.last_refresh_seconds = time.perf_counter() - started
                self.refreshes_total += 1
            if trace is not None:
                trace.add_span(
                    "snapshot_refresh",
                    time.perf_counter() - started,
                    version=snapshot.version,
                )
            return snapshot

    def _persist(self, snapshot: Snapshot) -> Snapshot:
        suffix = ".json.gz" if self.compress else ".json"
        path = Path(self.directory) / f"snapshot-{snapshot.version:06d}{suffix}"
        data, cost = serialization.dump_bytes_with_cost(
            snapshot.estimator, compress=self.compress
        )
        # Write-then-rename so a crash mid-persist never leaves a truncated
        # file at the canonical name: every version is complete or absent.
        scratch = path.with_suffix(path.suffix + ".tmp")
        scratch.write_bytes(data)
        os.replace(scratch, path)
        return dataclasses.replace(snapshot, path=path, wire=cost)

    @staticmethod
    def load(path: str | Path) -> FrequencyEstimator:
        """Reload a persisted snapshot's union of shard copies from disk."""
        return serialization.load_bytes(Path(path).read_bytes())

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    @property
    def latest(self) -> Snapshot | None:
        """The most recent snapshot (None before the first refresh)."""
        with self._lock:
            return self._latest

    def latest_or_refresh(self, trace: Trace | None = None) -> Snapshot:
        """The latest snapshot, building the first one if none exists."""
        snapshot = self.latest
        if snapshot is None:
            return self.refresh(trace=trace)
        return snapshot

    # ------------------------------------------------------------------ #
    # Periodic refresh
    # ------------------------------------------------------------------ #

    def start(self, interval: float) -> None:
        """Refresh every ``interval`` seconds on a daemon thread."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if self._ticker is not None:
            raise RuntimeError("periodic refresh already running")
        self._stop.clear()

        def tick() -> None:
            while not self._stop.wait(interval):
                try:
                    self.refresh()
                    with self._lock:
                        self.last_refresh_error = None
                # repro-lint: boundary snapshot-ticker thread entry point
                except Exception as exc:
                    # A transient failure (full disk, shard error) must not
                    # kill the ticker: record it, count it, and retry next
                    # interval.
                    with self._lock:
                        self.last_refresh_error = exc
                        self.refresh_errors_total += 1

        # repro-lint: allow[L006] single-writer: ticker handle touched only by the control thread
        self._ticker = threading.Thread(
            target=tick, name="snapshot-ticker", daemon=True
        )
        self._ticker.start()

    def stop(self) -> None:
        """Stop the periodic refresh thread (idempotent)."""
        if self._ticker is None:
            return
        self._stop.set()
        self._ticker.join()
        self._ticker = None
