"""Crash recovery: rebuild service state from a checkpoint plus WAL replay.

The recovery contract mirrors the durability contract of
:mod:`repro.service.wal`: every acked ingest chunk is either inside the
latest checkpoint's shard payloads or in a log frame after the
checkpoint's position, so

    recovered state  =  load checkpoint  +  replay newer frames

reconstructs the per-shard summaries the crashed process held: replay
splits each chunk with the :func:`~repro.service.sharding.partition_batch`
that live ingest uses and applies each part through the same
``update_batch`` fast path, so a replay is bit-identical to live
ingestion of the same chunk sequence -- on top of a checkpoint too, since
an :class:`~repro.algorithms.array_summary.ArraySummary` payload restores
its exact arrays.  A checkpoint written by an earlier build with
SpaceSaving shards loads as SpaceSaving shards and preserves every
estimate and per-item error bound (the round trip rebuilds acceleration
structures only, see :mod:`repro.serialization`).  Torn final frames are
truncated -- only frames that were fully on disk are replayed, which
under ``fsync="always"`` is a superset of everything the service ever
acked.

Three entry points:

* :func:`recover` -- offline: rebuild shard summaries (and window state)
  from a WAL directory, returning a :class:`RecoveryResult` whose
  estimator is the union of the key-disjoint shards and keeps their own
  ``(A, B)`` guarantee, as a live snapshot does.  Used by
  ``repro recover``.
* :func:`resume_service` -- online: build a
  :class:`~repro.service.server.HeavyHittersService`, restore the
  recovered state into it, and hand it back ready to ``start()`` -- this
  is what ``repro serve --wal-dir`` does on a directory with prior state.
* :func:`compact` -- write a fresh checkpoint covering everything a
  recovery replayed, then prune the segments it supersedes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro import serialization
from repro.algorithms.array_summary import ArraySummary
from repro.algorithms.base import FrequencyEstimator
from repro.core.merging import MergeResult, merge_summaries
from repro.core.tail_guarantee import TailGuarantee
from repro.service.sharding import partition_batch
from repro.service.wal import (
    FRAME_ADVANCE,
    FRAME_CHUNK,
    WalError,
    WalPosition,
    WalScanStats,
    decode_advance_record,
    decode_chunk_record,
    iter_wal,
    list_checkpoints,
    list_segments,
    load_checkpoint,
    read_manifest,
    write_checkpoint,
)
from repro.service.windows import WindowedSummarizer
from repro.engine.codec import TokenCodec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server imports wal)
    from repro.service.server import HeavyHittersService, ServiceConfig

EstimatorFactory = Callable[[], FrequencyEstimator]


class RecoveryError(RuntimeError):
    """Recovery cannot proceed (missing state, config mismatch, ...)."""


@dataclass
class RecoveryResult:
    """Everything rebuilt from one WAL directory.

    ``estimators`` are the per-shard summaries (index = shard id), exactly
    as a live :class:`~repro.service.sharding.ShardedSummarizer` would
    hold them; :attr:`merge` is their owner-shard union.
    """

    estimators: list[FrequencyEstimator]
    window: WindowedSummarizer | None
    k: int
    checkpoint_version: int
    resumed_from: WalPosition | None
    replayed_to: WalPosition | None
    chunks_replayed: int
    tokens_replayed: int
    advances_replayed: int
    scan: WalScanStats
    manifest: dict[str, Any] | None

    @property
    def num_shards(self) -> int:
        return len(self.estimators)

    @property
    def stream_length(self) -> float:
        """Total recovered stream weight across all shards."""
        return float(sum(est.stream_length for est in self.estimators))

    @cached_property
    def merge(self) -> MergeResult:
        """The union of :attr:`estimators`, built on first read.

        The shards hash-partition the key space, so the union keeps the
        shards' own constants -- ``(1, 1)`` for ArraySummary, SPACESAVING
        and FREQUENT, neutral ones when the estimator class has none (e.g.
        ``ExactCounter``).  A service restart never reads it, so it is not
        built there.  The union holds the estimators themselves, not
        copies: once a service adopts them and keeps ingesting, its
        answers move with the service's shards.
        """
        try:
            constants = TailGuarantee.for_algorithm(self.estimators[0])
        except ValueError:
            constants = TailGuarantee()
        return merge_summaries(
            self.estimators, k=self.k, source_constants=constants, disjoint=True
        )

    @property
    def estimator(self) -> FrequencyEstimator:
        """The queryable union of the recovered shards."""
        return self.merge.estimator


def _factory_from_manifest(manifest: dict[str, Any]) -> EstimatorFactory:
    """The service's shard summary, at the manifest's counter budget.

    Manifests written by earlier builds also name an ``algorithm`` and a
    ``weighted`` flag; both are ignored, because the service has one shard
    summary.  Their checkpoints still load as the classes they name.
    """
    num_counters = int(manifest.get("num_counters", 1000))
    return lambda: ArraySummary(num_counters)


def recover(
    wal_dir: str | Path,
    make_estimator: EstimatorFactory | None = None,
    num_shards: int | None = None,
    k: int | None = None,
    window_buckets: int | None = None,
) -> RecoveryResult:
    """Rebuild service state from ``wal_dir`` (checkpoint + replay).

    Every parameter defaults to the value recorded in the directory's
    ``wal-config.json`` manifest, so ``recover(path)`` alone reconstructs
    a service exactly as it was configured.  Explicit arguments override
    the manifest (e.g. to replay into a different counter budget).  A
    ``merge_mode`` field in manifests from earlier builds is ignored: the
    recovered shards are combined by their union.

    Raises :class:`RecoveryError` when the directory holds no recoverable
    state, the configuration cannot be resolved, or ``k`` (given or read
    from the manifest) is below 1, and
    :class:`~repro.service.wal.WalError` for genuine log corruption
    (anything beyond a torn final tail).
    """
    wal_dir = Path(wal_dir)
    if not wal_dir.is_dir():
        raise RecoveryError(f"no such WAL directory: {wal_dir}")
    manifest = read_manifest(wal_dir)
    if not list_segments(wal_dir) and not list_checkpoints(wal_dir) and manifest is None:
        raise RecoveryError(f"{wal_dir} contains no WAL segments or checkpoints")
    if make_estimator is None:
        if manifest is None:
            raise RecoveryError(
                f"{wal_dir} has no wal-config.json manifest; pass make_estimator "
                "and num_shards explicitly"
            )
        make_estimator = _factory_from_manifest(manifest)
    if num_shards is None:
        num_shards = int(manifest.get("num_shards", 1)) if manifest else 1
    if num_shards < 1:
        raise RecoveryError(f"num_shards must be >= 1, got {num_shards}")
    if k is None:
        k = int(manifest.get("k", 10)) if manifest else 10
    if k < 1:
        raise RecoveryError(f"k must be >= 1, got {k}")
    if window_buckets is None:
        window_buckets = int(manifest.get("window_buckets", 0)) if manifest else 0

    # 1. Latest checkpoint: restored shard (and window) state plus the log
    #    position it covers.
    checkpoint = load_checkpoint(wal_dir)
    checkpoint_version = 0
    resumed_from: WalPosition | None = None
    window: WindowedSummarizer | None = None
    if window_buckets > 0:
        window = WindowedSummarizer(make_estimator, num_buckets=window_buckets, k=k)
    if checkpoint is not None:
        payload, path = checkpoint
        shard_payloads = payload["shards"]
        if len(shard_payloads) != num_shards:
            raise RecoveryError(
                f"{path.name} holds {len(shard_payloads)} shard payloads but the "
                f"service is configured for {num_shards} shards"
            )
        try:
            estimators = [serialization.load(entry) for entry in shard_payloads]
        except serialization.SerializationError as error:
            raise WalError(f"corrupt checkpoint {path.name}: {error}") from error
        checkpoint_version = int(payload.get("checkpoint_version", 0))
        resumed_from = WalPosition.from_dict(payload.get("wal", {}))
        bucket_entries = payload.get("window_buckets")
        if window is not None and bucket_entries:
            try:
                window.restore_buckets(
                    [
                        (int(bucket_id), serialization.load(bucket_payload))
                        for bucket_id, bucket_payload in bucket_entries
                    ]
                )
            except (serialization.SerializationError, TypeError, ValueError) as error:
                raise WalError(
                    f"corrupt window state in checkpoint {path.name}: {error}"
                ) from error
    else:
        estimators = [make_estimator() for _ in range(num_shards)]

    # 2. Replay every frame after the checkpoint through the same
    #    partition + update_batch path live ingestion uses.
    scan = WalScanStats()
    codec = TokenCodec()
    chunks_replayed = 0
    tokens_replayed = 0
    advances_replayed = 0
    replayed_to = resumed_from
    for record in iter_wal(wal_dir, start=resumed_from, stats=scan):
        if record.frame_type == FRAME_CHUNK:
            chunk = decode_chunk_record(record, codec)
            for shard_id, part in partition_batch(chunk, num_shards).items():
                estimators[shard_id].update_batch(part)
            if window is not None:
                window.update_batch(chunk)
            chunks_replayed += 1
            tokens_replayed += len(chunk)
        elif record.frame_type == FRAME_ADVANCE:
            steps = decode_advance_record(record)
            if window is not None:
                window.advance(steps)
            advances_replayed += 1
        # Unknown frame types are skipped: a newer writer may add record
        # kinds an older reader can safely ignore (CRC already validated).
        replayed_to = record.position

    return RecoveryResult(
        estimators=estimators,
        window=window,
        k=k,
        checkpoint_version=checkpoint_version,
        resumed_from=resumed_from,
        replayed_to=replayed_to,
        chunks_replayed=chunks_replayed,
        tokens_replayed=tokens_replayed,
        advances_replayed=advances_replayed,
        scan=scan,
        manifest=manifest,
    )


def resume_service(
    config: "ServiceConfig", wal_dir: str | Path | None = None
) -> tuple["HeavyHittersService", RecoveryResult | None]:
    """Build a service, restoring prior WAL state into it when present.

    Returns ``(service, result)`` where ``result`` is ``None`` if the WAL
    directory held nothing to recover (fresh start).  The service is *not*
    started; the caller decides when ingestion begins.  New WAL appends go
    to a fresh segment, so a second crash before the next checkpoint
    replays old + new frames seamlessly.
    """
    from repro.service.server import HeavyHittersService

    wal_dir = Path(wal_dir if wal_dir is not None else config.wal_dir or "")
    if not str(wal_dir):
        raise RecoveryError("resume_service requires a WAL directory")
    result: RecoveryResult | None = None
    if wal_dir.is_dir() and (list_segments(wal_dir) or list_checkpoints(wal_dir)):
        result = recover(
            wal_dir,
            make_estimator=config.make_estimator,
            num_shards=config.num_shards,
            k=config.k,
            window_buckets=config.window_buckets,
        )
    service = HeavyHittersService(config)
    if result is not None:
        service.restore(result)
    return service, result


def compact(wal_dir: str | Path, result: RecoveryResult) -> Path:
    """Checkpoint a finished recovery and prune the segments it covers.

    Writes ``checkpoint-<version+1>`` holding the recovered shard (and
    window) state at the position replay reached, then deletes every
    segment wholly before it -- the offline equivalent of the running
    service's ``checkpoint`` op.
    """
    wal_dir = Path(wal_dir)
    position = result.replayed_to
    if position is None:
        # Nothing was ever logged; checkpoint at the origin.
        position = WalPosition(0, 0)
    window_buckets = None
    if result.window is not None:
        window_buckets = [
            (bucket_id, serialization.dump(estimator))
            for bucket_id, estimator in result.window.bucket_states()
        ]
    path = write_checkpoint(
        wal_dir,
        version=result.checkpoint_version + 1,
        position=position,
        shard_payloads=[serialization.dump(est) for est in result.estimators],
        window_buckets=window_buckets,
    )
    for index, segment in list_segments(wal_dir):
        if index < position.segment:
            segment.unlink(missing_ok=True)
    return path
