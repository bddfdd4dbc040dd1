"""The heavy-hitters service: request handling and the TCP socket server.

:class:`HeavyHittersService` wires the three service pieces together --
sharded concurrent ingest (:mod:`repro.service.sharding`), versioned
queryable snapshots (:mod:`repro.service.snapshots`) and optional sliding
windows (:mod:`repro.service.windows`) -- behind a single
``handle(request) -> response`` dict interface, so the core logic is
testable without sockets.

Requests are newline-delimited JSON over a local TCP socket: one request
object per line in, one response object per line out, ``"ok"``
signalling success.  The ``repro serve`` / ``repro query`` CLI
pair and :class:`repro.service.client.ServiceClient` speak it.  Requests::

    {"op": "ping"}
    {"op": "ingest", "items": [...], "weights": [...]?, "encoding": "tagged"?}
    {"op": "snapshot", "drain": true?}
    {"op": "checkpoint"}
    {"op": "advance-window", "steps": 1?}
    {"op": "query", "type": "point", "item": ..., "item_encoding": "tagged"?}
    {"op": "query", "type": "top-k", "k": 10}
    {"op": "query", "type": "heavy-hitters", "phi": 0.01}
    {"op": "query", "type": "window-point", "item": ..., "window": W?}
    {"op": "query", "type": "window-top-k", "k": 10, "window": W?}
    {"op": "query", "type": "window-heavy-hitters", "phi": 0.01, "window": W?}
    {"op": "stats"}
    {"op": "shutdown"}

Structured tokens (tuples such as network-flow 5-tuples, bytes, bools,
None, non-finite floats) cross the socket as the type-tagged key strings
of :func:`repro.serialization.encode_item_key`: an ingest request sets
``"encoding": "tagged"`` and sends every item encoded; a point query tags
its item with ``"item_encoding": "tagged"``.  Responses carry items as raw
JSON whenever JSON represents the type losslessly and as a tagged key with
``"item_tagged": true`` otherwise, so version 1 clients sending plain
string/number tokens see byte-identical behaviour.

Bulk ingest can instead ride binary frames (see :mod:`repro.service.wire`),
which every server accepts: each carries a client-encoded, CRC-framed
chunk record in the packed layout of
:func:`repro.serialization.dump_chunk_bytes`, which the server decodes
once and appends to its WAL verbatim.  Protocol-3 frames, whose records
hold JSON text, are still accepted.  Both encodings only turn the request
into an admitted chunk; one method then logs it, fans it out and acks it,
and the NDJSON path encodes the same packed record server-side for the
WAL.

Admission control is amortised into the columnar codec: each ingest chunk
is interned through a :class:`~repro.engine.codec.TokenCodec`, which
validates every *new* vocabulary entry exactly once (wire format v2)
instead of re-checking each token occurrence in a per-item Python loop,
and the encoded chunk fans out to the shards with one
``partition_chunk`` call.

Every shard and window bucket is an
:class:`~repro.algorithms.array_summary.ArraySummary`
(:meth:`ServiceConfig.make_estimator`); no setting picks another summary.
Snapshot-backed answers carry the shards' own ``(A, B) = (1, 1)``
guarantee constants (each key is answered by its owner shard); window
answers carry the constants of however many buckets were actually merged
-- ``(A, B)`` for one, Theorem 11's ``(3A, A+B)`` for more (see
:mod:`repro.service.windows`).
"""

from __future__ import annotations

# repro-lint: hot-path

import json
import math
import selectors
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro import serialization
from repro.algorithms.array_summary import ArraySummary
from repro.algorithms.base import Item
from repro.engine.codec import EncodedChunk, TokenAdmissionError, TokenCodec
from repro.core.tail_guarantee import TailGuarantee
from repro.service.audit import (
    DEFAULT_AUDIT_INTERVAL,
    DEFAULT_AUDIT_MAX_ITEMS,
    DEFAULT_AUDIT_RATE,
    AccuracyAuditor,
)
from repro.service.logging import get_logger
from repro.service.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from repro.service.sharding import ShardedSummarizer
from repro.service.snapshots import Snapshot, SnapshotManager
from repro.service.tracing import (
    DEFAULT_RING_SIZE,
    DEFAULT_SAMPLE_RATE,
    Trace,
    Tracer,
)
from repro.service.wal import (
    DEFAULT_FSYNC_INTERVAL,
    DEFAULT_SEGMENT_BYTES,
    WalPosition,
    WriteAheadLog,
    encode_chunk_record,
    parse_chunk_record,
    write_checkpoint,
    write_manifest,
)
from repro.service.wire import (
    SOCKET_FRAME_INGEST,
    SOCKET_FRAME_RESPONSE,
    SOCKET_MAGIC,
    FrameError,
    encode_socket_frame,
    read_socket_frame,
)
from repro.service.windows import WindowAnswer, WindowedSummarizer

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a module cycle
    from repro.service.recovery import RecoveryResult

#: Wire protocol version: 2 added tagged structured-token carriage and the
#: codec-amortised admission path; 3 added binary length-prefixed ingest
#: frames interleaved with NDJSON lines on the same socket (see
#: :mod:`repro.service.wire`); 4 makes the chunk record inside a frame the
#: packed binary layout instead of JSON text (v3 frames are still taken).
#: Every server speaks it and reports it on ping and ``/healthz``, so
#: clients can negotiate: a client only sends frames after seeing protocol
#: >= 4, and refuses structured tokens to a v1 server (which would store
#: the tagged key *strings* verbatim).
PROTOCOL_VERSION = 4

_MISSING = object()

@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one service instance.

    Every shard and window bucket is an
    :class:`~repro.algorithms.array_summary.ArraySummary` of
    ``num_counters`` counters; it takes real weights as they come.
    """

    num_counters: int = 1_000
    num_shards: int = 4
    k: int = 10
    window_buckets: int = 0
    snapshot_interval: float = 0.0
    snapshot_dir: str | None = None
    compress: bool = False
    #: Bound on the ingest codec's vocabulary: past this many distinct
    #: tokens the server rotates to a fresh codec (re-validating lazily as
    #: tokens reappear) so a long-running service with an unbounded key
    #: space cannot grow its interning state without limit.
    max_vocabulary: int = 1 << 20
    #: Write-ahead log directory (``None`` = no durability: tokens since
    #: the last snapshot are lost on a crash, the pre-WAL behaviour).
    wal_dir: str | None = None
    #: WAL fsync policy: ``"always"`` (acked => on disk), ``"interval"``
    #: (bounded loss window) or ``"off"`` (page cache only).
    fsync: str = "interval"
    #: Seconds between fsyncs under ``fsync="interval"``.
    fsync_interval: float = DEFAULT_FSYNC_INTERVAL
    #: Rotate WAL segments once they reach this many bytes.
    wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    #: Seconds between automatic checkpoints (0 = checkpoint on demand
    #: only, via the ``checkpoint`` op or ``repro query checkpoint``).
    checkpoint_interval: float = 0.0
    #: Attach a :class:`~repro.service.metrics.MetricsRegistry` (Prometheus
    #: instruments behind ``GET /metrics``).  ``False`` restores the bare
    #: pre-observability hot path -- the uninstrumented baseline that
    #: ``benchmarks/bench_http.py --check`` measures the <2% overhead gate
    #: against.
    metrics: bool = True
    #: Attach a :class:`~repro.service.tracing.Tracer`.  ``False`` removes
    #: every per-request clock read (the bare path the tracing-overhead
    #: bench gate measures against).
    tracing: bool = True
    #: Ambient probability that an un-forced request is traced into the
    #: ring buffer.  Forced traces (``trace={"force": true}`` / ``?trace=1``)
    #: are always sampled regardless of this rate.
    trace_sample_rate: float = DEFAULT_SAMPLE_RATE
    #: Capacity of the recent-traces ring behind ``GET /v1/traces``.
    trace_ring_size: int = DEFAULT_RING_SIZE
    #: Requests slower than this many seconds are logged at WARNING with
    #: their op (and trace id when sampled).  0 disables the slow log.
    slow_request_seconds: float = 1.0
    #: Deterministic hash-sampling rate of the accuracy auditor's exact
    #: mirror (see :mod:`repro.service.audit`).  0 disables auditing.
    audit_rate: float = DEFAULT_AUDIT_RATE
    #: Bound on the auditor's mirror size; past it the sampling threshold
    #: halves (pruning half the mirror) to stay within budget.
    audit_max_items: int = DEFAULT_AUDIT_MAX_ITEMS
    #: Minimum seconds between scrape-triggered audit comparisons.
    audit_interval: float = DEFAULT_AUDIT_INTERVAL

    def manifest(self) -> dict[str, Any]:
        """The fields recovery needs to rebuild this service's estimators."""
        return {
            "num_counters": self.num_counters,
            "num_shards": self.num_shards,
            "k": self.k,
            "window_buckets": self.window_buckets,
            "fsync": self.fsync,
        }

    def make_estimator(self) -> ArraySummary:
        return ArraySummary(self.num_counters)


def _guarantee_payload(constants: TailGuarantee, k: int, m: int) -> dict[str, float]:
    """The guarantee constants attached to every certified answer."""
    return {"a": constants.a, "b": constants.b, "k": k, "num_counters": m}


def _wire_item(item: Item) -> tuple[Any, bool]:
    """Encode one token for a JSON response.

    Returns ``(value, tagged)``: the raw item when JSON carries its type
    losslessly (:func:`repro.serialization.json_lossless` -- the same
    predicate the client tags by), else the type-tagged key string of
    :func:`repro.serialization.encode_item_key` with ``tagged=True`` so
    the client knows to decode it.
    """
    if serialization.json_lossless(item):
        return item, False
    return serialization.encode_item_key(item), True


def _wire_entries(pairs: Iterable[tuple[Item, float]]) -> list[dict[str, Any]]:
    """``{"item", "estimate"}`` response rows, tagging items as needed."""
    entries = []
    for item, estimate in pairs:
        value, tagged = _wire_item(item)
        entry: dict[str, Any] = {"item": value, "estimate": estimate}
        if tagged:
            entry["item_tagged"] = True
        entries.append(entry)
    return entries


class HeavyHittersService:
    """Sharded ingest + snapshot queries + sliding windows, as one object."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.sharded = ShardedSummarizer(
            config.make_estimator, num_shards=config.num_shards
        )
        self.snapshots = SnapshotManager(
            self.sharded,
            k=config.k,
            directory=config.snapshot_dir,
            compress=config.compress,
        )
        self.windowed: WindowedSummarizer | None = None
        if config.window_buckets > 0:
            self.windowed = WindowedSummarizer(
                config.make_estimator,
                num_buckets=config.window_buckets,
                k=config.k,
            )
        # The ingest codec doubles as the admission boundary: interning
        # validates each new vocabulary entry once (wire format v2).  The
        # lock serialises interning across connection threads; the shards
        # only *read* the codec, which is safe concurrently.
        self._codec = TokenCodec()
        self._decode_memo: dict[str, Item] = {}
        self._ingest_lock = threading.Lock()
        self.shutdown_requested = threading.Event()
        self._started = False
        self._closed = False
        self._log = get_logger("service")
        self._slow_threshold = config.slow_request_seconds
        # Tracing: per-request span recording behind a sampling decision.
        # Ambient samples only land in the ring (responses stay
        # byte-identical for unsuspecting clients); forced traces get the
        # breakdown attached to their response.
        self.tracer: Tracer | None = None
        if config.tracing:
            self.tracer = Tracer(
                sample_rate=config.trace_sample_rate,
                ring_size=config.trace_ring_size,
            )
        # Accuracy auditing: a deterministic hash-sampled exact mirror of
        # the ingest stream, compared against snapshots at scrape time.
        self.auditor: AccuracyAuditor | None = None
        if config.audit_rate > 0:
            self.auditor = AccuracyAuditor(
                rate=config.audit_rate,
                max_items=config.audit_max_items,
                interval=config.audit_interval,
            )
        # Observability: the registry exists before the WAL so the WAL's
        # latency timers can be wired in at construction.  Hot-path writes
        # are limited to per-chunk counter bumps; everything the service
        # already tracks (shard counters, WAL byte counts, snapshot age) is
        # exposed through scrape-time callbacks at zero ingest cost.
        self.metrics: MetricsRegistry | None = None
        self._m_tokens = self._m_batches = self._m_batch_size = None
        self._m_rejections = self._m_checkpoint_seconds = None
        self._m_ingest_requests = None
        wal_append_timer = wal_fsync_timer = None
        if config.metrics:
            self.metrics = MetricsRegistry()
            self._m_tokens = self.metrics.counter(
                "repro_ingest_tokens_total",
                "Total token weight acked by the ingest op.",
            )
            self._m_batches = self.metrics.counter(
                "repro_ingest_batches_total",
                "Ingest requests successfully acked.",
            )
            self._m_ingest_requests = self.metrics.counter(
                "repro_ingest_requests_total",
                "Ingest requests acked, by wire encoding (json or binary).",
                labelnames=("protocol",),
            )
            self._m_batch_size = self.metrics.histogram(
                "repro_ingest_batch_size",
                "Tokens per ingest request.",
                buckets=DEFAULT_SIZE_BUCKETS,
            )
            self._m_rejections = self.metrics.counter(
                "repro_admission_rejections_total",
                "Requests rejected by token admission control.",
            )
            self._m_checkpoint_seconds = self.metrics.histogram(
                "repro_checkpoint_seconds",
                "Wall time of one durable checkpoint (drain + persist + prune).",
            )
            wal_append_timer = self.metrics.histogram(
                "repro_wal_append_seconds",
                "WAL append latency (frame build + write + policy fsync).",
            )
            wal_fsync_timer = self.metrics.histogram(
                "repro_wal_fsync_seconds",
                "os.fsync latency on the active WAL segment.",
            )
        # Durability: with a WAL, every chunk is appended (fsync per
        # policy) before any shard sees it, and the ingest lock spans
        # append + enqueue so a checkpoint's WAL position always agrees
        # exactly with what the shards have been handed.
        self.wal: WriteAheadLog | None = None
        self._checkpoint_lock = threading.Lock()
        self._checkpoint_version = 0
        self._checkpoint_ticker: threading.Thread | None = None
        self._checkpoint_stop = threading.Event()
        self.last_checkpoint_error: BaseException | None = None
        #: Periodic checkpoints that failed (and were retried); exposed as
        #: repro_checkpoint_errors_total so silent disk trouble pages.
        self.checkpoint_errors_total = 0
        if config.wal_dir is not None:
            self.wal = WriteAheadLog(
                config.wal_dir,
                fsync=config.fsync,
                fsync_interval=config.fsync_interval,
                max_segment_bytes=config.wal_segment_bytes,
                append_timer=wal_append_timer,
                fsync_timer=wal_fsync_timer,
            )
            write_manifest(self.wal.directory, config.manifest())
        if self.metrics is not None:
            self._register_scrape_callbacks()

    def _register_scrape_callbacks(self) -> None:
        """Expose already-tracked state as scrape-time metric callbacks.

        Nothing here runs on the ingest path: each callback reads counters
        the components maintain anyway, once per ``GET /metrics``.
        """
        registry = self.metrics
        assert registry is not None

        def shard_samples(key: str) -> Callable[[], list[tuple[dict[str, str], float]]]:
            def sample() -> list[tuple[dict[str, str], float]]:
                return [
                    ({"shard": str(row["shard"])}, float(row[key]))
                    for row in self.sharded.queue_stats()
                ]

            return sample

        registry.register_callback(
            "repro_shard_tokens_applied_total",
            "Token weight each shard has applied to its summary.",
            "counter",
            shard_samples("tokens_applied"),
        )
        registry.register_callback(
            "repro_shard_batches_applied_total",
            "Batches each shard has applied to its summary.",
            "counter",
            shard_samples("batches_applied"),
        )
        registry.register_callback(
            "repro_stream_weight",
            "Total token weight enqueued to the shards since start.",
            "gauge",
            lambda: [(None, float(self.sharded.tokens_enqueued))],
        )
        registry.register_callback(
            "repro_snapshot_version",
            "Version of the latest queryable snapshot (0 before the first).",
            "gauge",
            lambda: [
                (
                    None,
                    0.0
                    if self.snapshots.latest is None
                    else float(self.snapshots.latest.version),
                )
            ],
        )
        registry.register_callback(
            "repro_snapshot_age_seconds",
            "Seconds since the latest snapshot was built.",
            "gauge",
            lambda: (
                []
                if self.snapshots.snapshot_age_seconds() is None
                else [(None, float(self.snapshots.snapshot_age_seconds()))]
            ),
        )
        registry.register_callback(
            "repro_snapshot_refresh_seconds",
            "Wall time of the most recent snapshot rebuild.",
            "gauge",
            lambda: (
                []
                if self.snapshots.last_refresh_seconds is None
                else [(None, float(self.snapshots.last_refresh_seconds))]
            ),
        )
        registry.register_callback(
            "repro_snapshot_refreshes_total",
            "Snapshot rebuilds since start.",
            "counter",
            lambda: [(None, float(self.snapshots.refreshes_total))],
        )
        registry.register_callback(
            "repro_snapshot_refresh_errors_total",
            "Periodic snapshot refreshes that failed and will be retried.",
            "counter",
            lambda: [(None, float(self.snapshots.refresh_errors_total))],
        )
        if self.wal is not None:
            registry.register_callback(
                "repro_wal_frames_appended_total",
                "Frames appended to the write-ahead log since open.",
                "counter",
                lambda: [(None, float(self.wal.frames_appended))],
            )
            registry.register_callback(
                "repro_wal_bytes_appended_total",
                "Bytes appended to the write-ahead log since open.",
                "counter",
                lambda: [(None, float(self.wal.bytes_appended))],
            )
            registry.register_callback(
                "repro_wal_segment_rotations_total",
                "WAL segment rotations since open.",
                "counter",
                lambda: [(None, float(self.wal.rotations))],
            )
            registry.register_callback(
                "repro_checkpoint_version",
                "Version of the most recent durable checkpoint.",
                "gauge",
                lambda: [(None, float(self._checkpoint_version))],
            )
            registry.register_callback(
                "repro_checkpoint_errors_total",
                "Periodic checkpoints that failed and will be retried.",
                "counter",
                lambda: [(None, float(self.checkpoint_errors_total))],
            )
        if self.windowed is not None:
            registry.register_callback(
                "repro_window_current_bucket",
                "Id of the window bucket currently receiving traffic.",
                "gauge",
                lambda: [(None, float(self.windowed.current_bucket))],
            )
            registry.register_callback(
                "repro_window_advances_total",
                "Window bucket rotations since start.",
                "counter",
                lambda: [(None, float(self.windowed.advances_total))],
            )
        if self.tracer is not None:
            registry.register_callback(
                "repro_traces_sampled_total",
                "Requests sampled into the trace ring buffer since start.",
                "counter",
                lambda: [(None, float(self.tracer.started_total))],
            )
            registry.register_callback(
                "repro_traces_forced_total",
                "Force-sampled traces (?trace=1 / trace.force) since start.",
                "counter",
                lambda: [(None, float(self.tracer.forced_total))],
            )
        if self.auditor is not None:
            # The auditor may be detached later (restore() of recovered
            # state the mirror never saw), so every callback re-reads
            # self.auditor and degrades to no samples.
            def observed_error_samples() -> list[tuple[dict[str, str], float]]:
                auditor = self.auditor
                report = (
                    None
                    if auditor is None
                    else auditor.report(self.snapshots.latest)
                )
                if report is None:
                    return []
                return [
                    ({"quantile": str(quantile)}, float(value))
                    for quantile, value in report.observed_error.items()
                ]

            registry.register_callback(
                "repro_observed_error",
                "Observed |estimate - exact| over the audited substream "
                "(quantile 1.0 is the max).",
                "gauge",
                observed_error_samples,
            )

            def budget_ratio_samples() -> list[tuple[dict[str, str], float]]:
                auditor = self.auditor
                report = (
                    None
                    if auditor is None
                    else auditor.report(self.snapshots.latest)
                )
                if report is None or report.budget_ratio is None:
                    return []
                if not math.isfinite(report.budget_ratio):
                    return []
                return [(None, float(report.budget_ratio))]

            registry.register_callback(
                "repro_error_budget_ratio",
                "Observed max error / conservative snapshot k-tail bound; "
                ">= 1 is a certain guarantee violation.",
                "gauge",
                budget_ratio_samples,
            )
            registry.register_callback(
                "repro_audit_items",
                "Distinct items in the auditor's exact mirror.",
                "gauge",
                lambda: (
                    []
                    if self.auditor is None
                    else [(None, float(self.auditor.items_audited))]
                ),
            )
            registry.register_callback(
                "repro_audit_sampled_weight",
                "Token weight mirrored exactly by the auditor since start.",
                "gauge",
                lambda: (
                    []
                    if self.auditor is None
                    else [(None, float(self.auditor.sampled_weight))]
                ),
            )
        registry.register_callback(
            "repro_service_ready",
            "1 when the service passes its readiness checks, else 0.",
            "gauge",
            lambda: [(None, 1.0 if self.ready else 0.0)],
        )
        registry.register_callback(
            "repro_service_info",
            "Static service configuration (value is always 1).",
            "gauge",
            lambda: [
                (
                    {
                        "num_counters": str(self.config.num_counters),
                        "num_shards": str(self.config.num_shards),
                        "protocol": str(self.protocol),
                        "wal": "on" if self.wal is not None else "off",
                        "fsync": self.config.fsync,
                    },
                    1.0,
                )
            ],
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> HeavyHittersService:
        self.sharded.start()
        if self.config.snapshot_interval > 0:
            self.snapshots.start(self.config.snapshot_interval)
        if self.wal is not None and self.config.checkpoint_interval > 0:
            self._start_checkpoint_ticker(self.config.checkpoint_interval)
        # repro-lint: allow[L006] single-writer lifecycle flag, control thread only
        self._started = True
        return self

    def close(self) -> None:
        # repro-lint: allow[L006] single-writer lifecycle flag, control thread only
        self._closed = True
        self._stop_checkpoint_ticker()
        self.snapshots.stop()
        self.sharded.close()
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------ #
    # Readiness
    # ------------------------------------------------------------------ #

    @property
    def ready(self) -> bool:
        """True when every readiness check passes (see :meth:`readiness`)."""
        return all(self.readiness().values())

    def readiness(self) -> dict[str, bool]:
        """Per-check readiness verdicts backing ``GET /readyz``.

        Ready means the service can take traffic *now*: it has been
        started (recovery replay, which runs before ``start()``, shows up
        as not-ready), it has not been closed, and the WAL (when
        configured) is still accepting appends.  Thread shards apply
        inline, so they are ready exactly when the service is started and
        not closed.
        """
        return {
            "started": self._started,
            "not_closed": not self._closed,
            "wal_writable": self.wal is None or not self.wal.closed,
        }

    def restore(self, result: "RecoveryResult") -> None:
        """Install crash-recovered state (before :meth:`start`).

        ``result`` comes from :func:`repro.service.recovery.recover` /
        :func:`~repro.service.recovery.resume_service`: the per-shard
        summaries are swapped into the shards, the window ring (if
        any) is rebuilt, and checkpoint numbering continues from the
        recovered version.
        """
        self.sharded.restore_shards(result.estimators)
        if self.windowed is not None and result.window is not None:
            self.windowed.restore_buckets(result.window.bucket_states())
        self._checkpoint_version = result.checkpoint_version
        if self.auditor is not None and result.stream_length > 0:
            # The exact mirror starts empty at process start; recovered
            # estimators carry history it never saw, so every comparison
            # would be skewed.  Disable rather than mislead.
            # repro-lint: allow[L006] single-writer: restore() runs before start(), no readers yet
            self.auditor = None
            self._log.info(
                "accuracy auditor disabled: recovered state predates the "
                "exact mirror",
                extra={"recovered_weight": result.stream_length},
            )

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> dict[str, Any]:
        """Write a durable checkpoint and prune the WAL segments it covers.

        Under the ingest lock the current WAL tail is captured and the
        shards flushed, so the persisted shard payloads contain
        *exactly* the chunks logged before that position -- recovery
        resumes replay there with no gap and no double count.
        """
        if self.wal is None:
            raise RuntimeError(
                "service has no write-ahead log (start with wal_dir set)"
            )
        checkpoint_started = time.perf_counter()
        with self._checkpoint_lock:
            with self._ingest_lock:
                # The checkpoint file is fsynced, so the WAL bytes its
                # position covers must be too: under fsync=interval/off an
                # OS crash could otherwise leave the on-disk segment
                # shorter than the recorded resume offset (recovery would
                # hard-fail) with the pruned segments gone as fallback.
                self.wal.sync()
                position = self.wal.tail()
                self.sharded.flush()
                shard_payloads = self.sharded.shard_payloads()
                window_buckets = (
                    self.windowed.bucket_payloads()
                    if self.windowed is not None
                    else None
                )
            self._checkpoint_version += 1
            version = self._checkpoint_version
            path = write_checkpoint(
                self.wal.directory,
                version=version,
                position=position,
                shard_payloads=shard_payloads,
                window_buckets=window_buckets,
                durable=self.config.fsync != "off",
            )
            pruned = self.wal.prune_upto(position)
        if self._m_checkpoint_seconds is not None:
            self._m_checkpoint_seconds.observe(
                time.perf_counter() - checkpoint_started
            )
        return {
            "version": version,
            "path": str(path),
            "wal": position.as_dict(),
            "pruned_segments": pruned,
        }

    def _start_checkpoint_ticker(self, interval: float) -> None:
        if self._checkpoint_ticker is not None:
            raise RuntimeError("checkpoint ticker already running")
        self._checkpoint_stop.clear()

        def tick() -> None:
            while not self._checkpoint_stop.wait(interval):
                try:
                    self.checkpoint()
                    self.last_checkpoint_error = None
                # repro-lint: boundary checkpoint-ticker thread entry point
                except Exception as exc:
                    # A transient failure (full disk) must not kill the
                    # ticker: record it, count it, and retry next interval.
                    self.checkpoint_errors_total += 1
                    self.last_checkpoint_error = exc
                    self._log.warning(
                        "periodic checkpoint failed; retrying next interval",
                        extra={"error": repr(exc)},
                    )

        # repro-lint: allow[L006] single-writer: ticker handle touched only by the control thread
        self._checkpoint_ticker = threading.Thread(
            target=tick, name="wal-checkpoint", daemon=True
        )
        self._checkpoint_ticker.start()

    def _stop_checkpoint_ticker(self) -> None:
        if self._checkpoint_ticker is None:
            return
        self._checkpoint_stop.set()
        self._checkpoint_ticker.join()
        self._checkpoint_ticker = None

    def __enter__(self) -> HeavyHittersService:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one request dict; never raises, errors become payloads.

        Tracing rides the same path: a sampling decision per request,
        span recording only for the sampled few, and the per-stage
        breakdown attached to the response for *forced* traces (ambient
        samples stay ring-only, so ordinary clients see byte-identical
        payloads).  Requests slower than ``slow_request_seconds`` are
        logged at WARNING with their trace id when one exists.
        """
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        trace: Trace | None = None
        if self.tracer is not None:
            trace = self.tracer.begin(op, request.get("trace"))
        timed = trace is not None or self._slow_threshold > 0.0
        started = time.perf_counter() if timed else 0.0
        try:
            response = handler(self, request, trace)
        except (ValueError, RuntimeError, KeyError, TypeError, OSError) as error:
            if self._m_rejections is not None and isinstance(
                error, (TokenAdmissionError, serialization.SerializationError)
            ):
                self._m_rejections.inc()
            response = {"ok": False, "error": str(error)}
        if timed:
            elapsed = time.perf_counter() - started
            if trace is not None:
                if response.get("ok") is False:
                    trace.error = str(response.get("error"))
                trace.finish(elapsed)
                if trace.forced:
                    response["trace"] = trace.breakdown()
            if self._slow_threshold > 0.0 and elapsed >= self._slow_threshold:
                extra: dict[str, Any] = {"op": op, "seconds": round(elapsed, 6)}
                if trace is not None:
                    extra["trace_id"] = trace.trace_id
                self._log.warning("slow request", extra=extra)
        return response

    #: The wire protocol version this instance advertises on ping and
    #: ``/healthz``.  This *is* the negotiation: a client pings, reads it,
    #: and only sends binary frames when it is >= 4.
    protocol: int = PROTOCOL_VERSION

    def _op_ping(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        # "tracing"/"audit" are capability advertisements, not protocol
        # bumps: the trace request field is optional and ignored by older
        # servers, so protocol 2 carries it gracefully.
        return {
            "ok": True,
            "pong": True,
            "protocol": self.protocol,
            "binary": True,
            "tracing": self.tracer is not None,
            "audit": self.auditor is not None,
        }

    def _decode_tagged_items(self, keys: list[Any]) -> list[Item]:
        """Decode tagged wire items, memoising once per distinct key string.

        A skewed ingest stream repeats a small set of keys, so after warm-up
        each occurrence costs one dict hit instead of a full key decode.
        """
        memo = self._decode_memo
        decoded = []
        for key in keys:
            token = memo.get(key, _MISSING) if isinstance(key, str) else _MISSING
            if token is _MISSING:
                if not isinstance(key, str):
                    raise serialization.SerializationError(
                        "tagged ingest requires every item to be an encoded "
                        f"key string, got {type(key).__name__}"
                    )
                token = serialization.decode_item_key(key)
                memo[key] = token
            decoded.append(token)
        return decoded

    def _maybe_rotate_codec_locked(self) -> None:
        """Bound the interning state; caller holds ``_ingest_lock``.

        The decode memo is bounded independently of the vocabulary:
        non-canonical key spellings ("i:07", "f:1.00") decode onto
        existing tokens without growing the codec, so memo size --
        not just vocabulary size -- must be able to trigger rotation.
        """
        if (
            len(self._codec) > self.config.max_vocabulary
            or len(self._decode_memo) > self.config.max_vocabulary
        ):
            self._codec = TokenCodec()
            self._decode_memo.clear()

    def _op_ingest(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        """One NDJSON ingest request: items (tagged or raw) + weights."""
        items = request.get("items")
        if not isinstance(items, list):
            return {"ok": False, "error": "ingest requires an 'items' list"}
        weights = request.get("weights")
        if weights is not None and (
            not isinstance(weights, list) or len(weights) != len(items)
        ):
            return {"ok": False, "error": "'weights' must parallel 'items'"}
        tagged = request.get("encoding") == "tagged"

        def decode() -> EncodedChunk:
            # Snapshots copy shards through the wire format, so an item the
            # format cannot carry must be rejected here, before any shard
            # stores it.  That admission control is amortised into the
            # codec: encode_chunk validates each *new* vocabulary entry
            # exactly once (TokenAdmissionError is a ValueError; handle()
            # turns it into an error payload) instead of re-checking every
            # token occurrence.
            if trace is not None:
                mark = time.perf_counter()
            keys = self._decode_tagged_items(items) if tagged else items
            if trace is not None:
                now = time.perf_counter()
                trace.add_span("decode", now - mark, protocol="json")
                mark = now
            chunk = self._codec.encode_chunk(keys, weights)
            if trace is not None:
                trace.add_span(
                    "admission", time.perf_counter() - mark, tokens=len(keys)
                )
            return chunk

        return self._ingest(decode, None, "json", trace)

    def _op_ingest_binary(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        """One binary ingest frame (synthesised by the transport).

        ``request["record"]`` is the raw frame payload: a complete
        CRC-framed WAL chunk record produced client-side.  The hot path
        therefore skips the JSON parse, the per-token re-intern, and the
        WAL re-encode of the NDJSON path: validate the CRC, decode the
        columns from a :class:`memoryview` of the received buffer, append
        that same buffer to the log verbatim.
        """
        record = request.get("record")
        if not isinstance(record, (bytes, bytearray, memoryview)):
            return {"ok": False, "error": "binary ingest requires a chunk record"}
        payload = parse_chunk_record(record)

        def decode() -> EncodedChunk:
            # Decoding interns only vocabulary entries the codec has not
            # seen (admission control included); the id column is validated
            # in one vectorised pass against the chunk's own vocabulary.
            if trace is not None:
                mark = time.perf_counter()
            chunk = serialization.load_chunk_bytes(payload, self._codec)
            if trace is not None:
                trace.add_span(
                    "decode",
                    time.perf_counter() - mark,
                    tokens=len(chunk),
                    protocol="binary",
                )
            return chunk

        return self._ingest(decode, bytes(record), "binary", trace)

    def _ingest(
        self,
        decode: Callable[[], EncodedChunk],
        record: bytes | None,
        protocol: str,
        trace: Trace | None,
    ) -> dict[str, Any]:
        """The one ingest path behind both wire encodings.

        ``decode`` turns the request into an admitted chunk (recording the
        ``decode`` and, for JSON, ``admission`` spans); it runs under
        ``_ingest_lock`` because interning is not thread-safe.  ``record``
        is the chunk's CRC-framed WAL record when the client sent one;
        otherwise it is encoded here, once, and only for a WAL.

        Durability boundary: with a WAL the record hits the log (fsync per
        policy) before any shard sees it, and the ack only goes out after
        the append returns -- so under fsync="always" an acked token is on
        disk.  Fan-out stays under the lock so a concurrent checkpoint's
        WAL position always matches what the shards were handed.  A
        pending shard failure is surfaced *before* the append: otherwise
        this request would error after durably logging its chunk, and a
        producer that retries on error would double-count on recovery.
        An empty chunk is acked at the current tail without an append.
        Without a WAL the fan-out runs after the lock is released.
        """
        wal_position: WalPosition | None = None
        with self._ingest_lock:
            self._maybe_rotate_codec_locked()
            chunk = decode()
            if self.wal is not None:
                self.sharded.raise_pending_errors()
                if len(chunk) == 0:
                    wal_position = self.wal.tail()
                else:
                    if record is None:
                        record = encode_chunk_record(chunk)
                    if trace is not None:
                        mark = time.perf_counter()
                    wal_position = self.wal.append_record(record, trace=trace)
                    if trace is not None:
                        trace.add_span("wal_append", time.perf_counter() - mark)
                ingested = self._fan_out(chunk, trace)
        if self.wal is None:
            ingested = self._fan_out(chunk, trace)
        if self._m_tokens is not None:
            # One counter bump per *chunk* (not per token), after the ack
            # is decided: scraped totals always equal acked totals.
            self._m_tokens.inc(ingested)
            self._m_batches.inc()
            self._m_batch_size.observe(len(chunk))
            self._m_ingest_requests.labels(protocol).inc()
        response: dict[str, Any] = {
            "ok": True,
            "ingested": ingested,
            "tokens_enqueued": self.sharded.tokens_enqueued,
        }
        if wal_position is not None:
            response["wal"] = wal_position.as_dict()
            response["durable"] = self.config.fsync == "always"
        return response

    def _fan_out(self, chunk: EncodedChunk, trace: Trace | None) -> int:
        """Hand an admitted chunk to the shards, the window and the auditor.

        The codec admitted every token already, so this cannot fail
        validation.
        """
        if trace is not None:
            mark = time.perf_counter()
        ingested = self.sharded.ingest(chunk, trace=trace)
        if trace is not None:
            trace.add_span("shard_enqueue", time.perf_counter() - mark)
        if self.windowed is not None:
            self.windowed.update_batch(chunk)
        if self.auditor is not None:
            self.auditor.observe_chunk(chunk)
        return ingested

    def _op_snapshot(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        snapshot = self.snapshots.refresh(
            drain=bool(request.get("drain", True)), trace=trace
        )
        return {"ok": True, **self._snapshot_payload(snapshot)}

    def _op_advance_window(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        if self.windowed is None:
            return {"ok": False, "error": "service started without windows"}
        steps = int(request.get("steps", 1))
        if steps < 1:
            return {"ok": False, "error": f"steps must be >= 1, got {steps}"}
        if self.wal is not None:
            # Bucket boundaries are part of the recoverable state: log the
            # advance so replay reproduces the same ring rotation.
            with self._ingest_lock:
                self.wal.append_advance(steps)
                bucket = self.windowed.advance(steps)
        else:
            bucket = self.windowed.advance(steps)
        return {"ok": True, "bucket": bucket}

    def _op_checkpoint(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        return {"ok": True, **self.checkpoint()}

    def _op_traces(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        """Export the recent-traces ring (``GET /v1/traces`` over HTTP)."""
        if self.tracer is None:
            return {
                "ok": False,
                "error": "tracing disabled (service started with tracing=False)",
            }
        limit = request.get("limit")
        return {
            "ok": True,
            "sample_rate": self.tracer.sample_rate,
            "traces": self.tracer.snapshot(None if limit is None else int(limit)),
        }

    def _op_audit(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        """Run one accuracy audit now, against the latest snapshot."""
        if self.auditor is None:
            return {
                "ok": False,
                "error": "auditor disabled (audit_rate=0, or state was "
                "recovered after a restart)",
            }
        snapshot = self.snapshots.latest_or_refresh(trace=trace)
        report = self.auditor.run_audit(snapshot)
        return {"ok": True, **report.as_dict()}

    def _op_stats(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        latest = self.snapshots.latest
        stats: dict[str, Any] = {
            "ok": True,
            "num_counters": self.config.num_counters,
            "num_shards": self.config.num_shards,
            "k": self.config.k,
            "tokens_enqueued": self.sharded.tokens_enqueued,
            "shards": self.sharded.shard_stats(),
            "snapshot_version": None if latest is None else latest.version,
            "last_refresh_error": (
                None
                if self.snapshots.last_refresh_error is None
                else str(self.snapshots.last_refresh_error)
            ),
        }
        if self.windowed is not None:
            stats["window"] = {
                "num_buckets": self.windowed.num_buckets,
                "current_bucket": self.windowed.current_bucket,
                "live_buckets": [
                    {"bucket": bucket_id, "weight": weight}
                    for bucket_id, weight in self.windowed.live_buckets()
                ],
            }
        if self.wal is not None:
            stats["wal"] = {
                "directory": str(self.wal.directory),
                "fsync": self.wal.fsync,
                "tail": self.wal.tail().as_dict(),
                "frames_appended": self.wal.frames_appended,
                "bytes_appended": self.wal.bytes_appended,
                "checkpoint_version": self._checkpoint_version,
                "last_checkpoint_error": (
                    None
                    if self.last_checkpoint_error is None
                    else str(self.last_checkpoint_error)
                ),
            }
        if self.tracer is not None:
            stats["tracing"] = {
                "sample_rate": self.tracer.sample_rate,
                "sampled_total": self.tracer.started_total,
                "forced_total": self.tracer.forced_total,
                "ring": len(self.tracer),
            }
        if self.auditor is not None:
            stats["audit"] = {
                "sample_rate": self.auditor.sample_rate,
                "items_audited": self.auditor.items_audited,
                "sampled_weight": self.auditor.sampled_weight,
            }
        return stats

    def _op_shutdown(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        self.shutdown_requested.set()
        return {"ok": True, "stopping": True}

    def _op_query(
        self, request: dict[str, Any], trace: Trace | None = None
    ) -> dict[str, Any]:
        query_type = request.get("type")
        if query_type in ("point", "top-k", "heavy-hitters"):
            return self._snapshot_query(query_type, request, trace)
        if query_type in ("window-point", "window-top-k", "window-heavy-hitters"):
            return self._window_query(query_type, request)
        return {"ok": False, "error": f"unknown query type {query_type!r}"}

    # -- snapshot-backed queries --------------------------------------- #

    def _snapshot_payload(self, snapshot: Snapshot) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "version": snapshot.version,
            "stream_length": snapshot.stream_length,
            "shard_lengths": list(snapshot.shard_lengths),
            "guarantee": _guarantee_payload(
                snapshot.constants, snapshot.k, snapshot.estimator.num_counters
            ),
        }
        if snapshot.path is not None:
            payload["path"] = str(snapshot.path)
        if snapshot.wire is not None:
            payload["wire"] = {
                "words": snapshot.wire.words,
                "json_bytes": snapshot.wire.json_bytes,
                "wire_bytes": snapshot.wire.wire_bytes,
                "compressed": snapshot.wire.compressed,
            }
        return payload

    @staticmethod
    def _query_item(request: dict[str, Any]) -> Item:
        """The point-query target, decoding the tagged form when flagged."""
        item = request["item"]
        if request.get("item_encoding") == "tagged":
            if not isinstance(item, str):
                raise serialization.SerializationError(
                    "tagged point queries require 'item' to be an encoded "
                    f"key string, got {type(item).__name__}"
                )
            return serialization.decode_item_key(item)
        if isinstance(item, list):
            raise serialization.SerializationError(
                "JSON arrays are not hashable tokens; send tuple items with "
                '"item_encoding": "tagged"'
            )
        return item

    def _snapshot_query(
        self,
        query_type: str,
        request: dict[str, Any],
        trace: Trace | None = None,
    ) -> dict[str, Any]:
        snapshot = self.snapshots.latest_or_refresh(trace=trace)
        if trace is not None:
            mark = time.perf_counter()
        response = self._answer(
            query_type, snapshot, request, {"ok": True, **self._snapshot_payload(snapshot)}
        )
        if trace is not None:
            trace.add_span(
                "query_execute",
                time.perf_counter() - mark,
                snapshot_version=snapshot.version,
            )
        return response

    # -- window-backed queries ----------------------------------------- #

    def _window_query(self, query_type: str, request: dict[str, Any]) -> dict[str, Any]:
        if self.windowed is None:
            return {"ok": False, "error": "service started without windows"}
        window = request.get("window")
        answer: WindowAnswer = self.windowed.query(
            window=None if window is None else int(window)
        )
        num_counters = (
            0 if answer.estimator is None else answer.estimator.num_counters
        )
        response: dict[str, Any] = {
            "ok": True,
            "window": answer.window,
            "buckets_merged": answer.buckets_merged,
            "stream_length": answer.stream_length,
            "empty": answer.empty,
            "guarantee": _guarantee_payload(answer.constants, answer.k, num_counters),
        }
        return self._answer(query_type.removeprefix("window-"), answer, request, response)

    def _answer(
        self,
        query_type: str,
        answer: Snapshot | WindowAnswer,
        request: dict[str, Any],
        response: dict[str, Any],
    ) -> dict[str, Any]:
        """Add a point, top-k or heavy-hitters answer to ``response``.

        Shared by the snapshot and window queries so both validate their
        parameters alike; a bad parameter raises ``ValueError``, which
        :meth:`handle` turns into an ``ok: false`` response.
        """
        if query_type == "point":
            if "item" not in request:
                return {"ok": False, "error": "point query requires 'item'"}
            item = self._query_item(request)
            value, tagged = _wire_item(item)
            response["item"] = value
            if tagged:
                response["item_tagged"] = True
            response["estimate"] = answer.estimate(item)
        elif query_type == "top-k":
            k = int(request.get("k", self.config.k))
            if k < 0:
                raise ValueError(f"k must be >= 0, got {k}")
            response["top_k"] = _wire_entries(answer.top_k(k))
        else:  # heavy-hitters
            phi = float(request["phi"])
            response["phi"] = phi
            response["heavy_hitters"] = _wire_entries(answer.heavy_hitters(phi))
        return response

    _OPS: dict[str, Callable[..., dict[str, Any]]] = {
        "ping": _op_ping,
        "ingest": _op_ingest,
        "ingest-binary": _op_ingest_binary,
        "snapshot": _op_snapshot,
        "checkpoint": _op_checkpoint,
        "advance-window": _op_advance_window,
        "stats": _op_stats,
        "query": _op_query,
        "traces": _op_traces,
        "audit": _op_audit,
        "shutdown": _op_shutdown,
    }


# --------------------------------------------------------------------------- #
# TCP transport: NDJSON lines and binary frames on one socket
# --------------------------------------------------------------------------- #


class _RequestHandler(socketserver.StreamRequestHandler):
    """Per-connection reader speaking both wire encodings.

    Dispatch is on the first byte of each message: ``0xB3`` starts a
    binary frame (protocol v3/v4), anything else -- in practice ``{`` -- is
    an NDJSON line.  The two interleave freely on one connection, so a
    client can bulk-ingest with frames and query with JSON lines without
    reconnecting.  Responses mirror the request encoding.
    """

    #: Request/response over small writes: Nagle would hold each response
    #: behind the peer's delayed ACK, stalling every synchronous ingest
    #: round-trip by up to the delayed-ACK timeout.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        service: HeavyHittersService = self.server.service  # type: ignore[attr-defined]
        while True:
            first = self.rfile.read(1)
            if not first:
                return
            if first[0] == SOCKET_MAGIC:
                if not self._handle_frame(service):
                    return
                continue
            raw = first + self.rfile.readline()
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                request = {}
                response = {"ok": False, "error": f"invalid JSON: {error}"}
            else:
                response = service.handle(request)
            self.wfile.write((json.dumps(response) + "\n").encode())
            self.wfile.flush()
            op = request.get("op") if isinstance(request, dict) else None
            if op == "shutdown" and response.get("ok"):
                # shutdown() blocks until serve_forever exits, so it must
                # run off the serving thread.
                threading.Thread(
                    target=self.server.shutdown, daemon=True  # type: ignore[attr-defined]
                ).start()
                return

    def _handle_frame(self, service: HeavyHittersService) -> bool:
        """Process one binary frame; False closes the connection.

        A malformed frame header is fatal for the *connection* (with no
        trustworthy length there is no way to resynchronise the stream)
        but never for the server.  A well-framed message with an
        unsupported type is answered and skipped -- the length made the
        stream seekable past it.
        """
        try:
            frame_type, payload = read_socket_frame(self.rfile, magic_consumed=True)
        except FrameError as error:
            self._respond_frame({"ok": False, "error": str(error)})
            return False
        if frame_type != SOCKET_FRAME_INGEST:
            self._respond_frame(
                {"ok": False, "error": f"unsupported frame type {frame_type}"}
            )
            return True
        response = service.handle({"op": "ingest-binary", "record": payload})
        self._respond_frame(response)
        return True

    def _respond_frame(self, response: dict[str, Any]) -> None:
        body = json.dumps(response).encode()
        self.wfile.write(encode_socket_frame(SOCKET_FRAME_RESPONSE, body))
        self.wfile.flush()


class PromptShutdownMixin(socketserver.BaseServer):
    """``serve_forever`` that leaves its loop as soon as ``shutdown`` runs.

    socketserver's own loop only sees a shutdown request at its next
    0.5 s poll.  Here the loop also watches one end of a socket pair, and
    ``shutdown`` writes a byte to the other end: the ``select`` wakes at
    once.  Same contract as the stdlib: ``shutdown``
    blocks until the loop has exited and must not be called from it.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._stopping = False
        self._stopped = threading.Event()
        super().__init__(*args, **kwargs)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until :meth:`shutdown`; ``poll_interval`` is unused."""
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while not self._stopping:
                    for key, _ in selector.select():
                        if key.fileobj is self._wake_reader:
                            self._wake_reader.recv(64)
                        elif not self._stopping:
                            self._handle_request_noblock()  # type: ignore[attr-defined]
                    self.service_actions()
        finally:
            self._stopping = False
            self._stopped.set()

    def shutdown(self) -> None:
        self._stopping = True
        self._wake_writer.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()


class ServiceServer(PromptShutdownMixin, socketserver.ThreadingTCPServer):
    """A threading TCP server bound to one :class:`HeavyHittersService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: HeavyHittersService, host: str, port: int) -> None:
        self.service = service
        super().__init__((host, port), _RequestHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve(
    config: ServiceConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    service: HeavyHittersService | None = None,
) -> ServiceServer:
    """Start a service and a server for it; returns the (running) server.

    ``port=0`` binds an ephemeral port (``server.port`` reveals it).  The
    caller drives ``serve_forever()`` -- typically on a background thread in
    tests and on the main thread in ``repro serve``.  ``service`` lets a
    caller hand in a pre-built (e.g. crash-recovered, see
    :func:`repro.service.recovery.resume_service`) instance; it must not be
    started yet.
    """
    service = HeavyHittersService(config) if service is None else service
    service.start()
    try:
        return ServiceServer(service, host, port)
    except BaseException:
        # Bind failures (port in use) must not leak the started snapshot
        # and checkpoint tickers.
        service.close()
        raise
