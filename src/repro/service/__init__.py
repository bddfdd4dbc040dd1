"""Long-running heavy-hitters service built on mergeable summaries.

The architectural leap from algorithm library to system: ingest is
hash-sharded across per-shard summaries, each an
:class:`~repro.algorithms.array_summary.ArraySummary` (FREQUENT_R applied a
chunk at a time on NumPy arrays, ``(1, 1)``), and because the shards' key
spaces are disjoint, a query is answered by the owner shard of each key
with the shards' own ``(A, B)`` k-tail guarantee -- no merge, no loss of
certified error bounds; snapshot files and crash recovery keep the same
union.  Window buckets overlap in key space: a window answer combines them
with the same array kernel and advertises Theorem 11's ``(3A, A+B)``;
offline merges of other summaries replay per Theorem 11.  Tokens are admitted once, when a ``TokenCodec`` interns them
into an ``EncodedChunk``; everything below the wire takes chunks only.
The pipeline is::

    chunk --> ShardedSummarizer (hash-partitioned shard summaries,
          |                      batched updates applied inline)
          +-> WindowedSummarizer (ring-buffered per-bucket summaries)

    SnapshotManager: shard copies --union (owner shards)--> versioned Snapshot
    Snapshot / WindowAnswer: point, top-k, heavy-hitters queries
    server/client: NDJSON lines + binary ingest frames, one TCP socket,
                   one server ingest path (decode -> WAL -> shards)

* :mod:`repro.service.sharding` -- hash-sharded ingestion of encoded
  chunks (shard summaries behind per-shard locks, each chunk split by
  ``partition_batch`` and applied inline; the service's factory builds
  ``ArraySummary`` shards, any factory works);
* :mod:`repro.service.snapshots` -- versioned, persisted, queryable
  snapshots carrying the shards' own guarantee;
* :mod:`repro.service.windows` -- sliding-window heavy hitters over
  bucketed summaries;
* :mod:`repro.service.wal` -- segmented write-ahead log (CRC frames,
  fsync policy, checkpoints) appended to *before* tokens reach the
  shards, so acked ingest survives a crash;
* :mod:`repro.service.recovery` -- checkpoint + replay crash recovery
  behind ``repro recover`` and ``repro serve --wal-dir`` restarts;
* :mod:`repro.service.server` / :mod:`repro.service.client` -- the TCP
  wire protocol (version 4) behind ``repro serve`` and ``repro query``:
  NDJSON request lines plus binary length-prefixed ingest frames that
  carry the WAL's CRC-framed chunk record end to end.  Either encoding
  is decoded into an admitted chunk, then one server method appends it
  to the WAL, fans it out to shards, window and auditor, and acks;
* :mod:`repro.service.wire` -- the v3 socket framing shared by both
  sides (magic + type + length, negotiation constants);
* :mod:`repro.service.metrics` -- zero-dependency Prometheus-style
  Counter/Gauge/Histogram instruments and their text exposition;
* :mod:`repro.service.http` -- the operations HTTP plane (REST queries,
  ``/healthz`` / ``/readyz`` probes, ``/metrics``, the live dashboard at
  ``/``) behind ``repro serve --http-port`` and ``repro query --http``;
* :mod:`repro.service.tracing` -- zero-dependency W3C
  traceparent-compatible request tracing: per-stage spans from decode
  through WAL append to shard apply, a bounded in-memory ring exported at
  ``GET /v1/traces``, probabilistic + forced sampling;
* :mod:`repro.service.logging` -- structured JSON / text logging with
  trace-id correlation behind ``repro serve --log-format``;
* :mod:`repro.service.audit` -- live accuracy auditor: a deterministic
  hash-sampled exact mirror of the stream whose observed errors are
  compared against the paper's k-tail bound and exported as
  ``repro_observed_error`` / ``repro_error_budget_ratio`` gauges.
"""

from repro.service.audit import AccuracyAuditor, AuditReport
from repro.service.client import HttpServiceClient, ServiceClient, ServiceError
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.http import OperationsHttpServer, serve_http
from repro.service.logging import (
    JsonFormatter,
    TextFormatter,
    configure_logging,
    get_logger,
)
from repro.service.metrics import MetricsRegistry, parse_exposition
from repro.service.recovery import (
    RecoveryError,
    RecoveryResult,
    recover,
    resume_service,
)
from repro.service.server import (
    HeavyHittersService,
    ServiceConfig,
    ServiceServer,
    serve,
)
from repro.service.sharding import ShardedSummarizer, partition_batch, shard_for
from repro.service.snapshots import Snapshot, SnapshotManager
from repro.service.tracing import (
    Trace,
    TraceContext,
    Tracer,
    format_server_timing,
    parse_traceparent,
)
from repro.service.wal import WalError, WalPosition, WriteAheadLog, iter_wal
from repro.service.windows import WindowAnswer, WindowedSummarizer

__all__ = [
    "AccuracyAuditor",
    "AuditReport",
    "DASHBOARD_HTML",
    "HeavyHittersService",
    "HttpServiceClient",
    "JsonFormatter",
    "MetricsRegistry",
    "OperationsHttpServer",
    "RecoveryError",
    "RecoveryResult",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "ShardedSummarizer",
    "Snapshot",
    "SnapshotManager",
    "TextFormatter",
    "Trace",
    "TraceContext",
    "Tracer",
    "WalError",
    "WalPosition",
    "WindowAnswer",
    "WindowedSummarizer",
    "WriteAheadLog",
    "configure_logging",
    "format_server_timing",
    "get_logger",
    "iter_wal",
    "parse_exposition",
    "parse_traceparent",
    "partition_batch",
    "recover",
    "resume_service",
    "serve",
    "serve_http",
    "shard_for",
]
