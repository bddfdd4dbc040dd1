"""Sharded ingestion: hash-partitioned per-shard summaries.

The service half of the paper's mergeability story (Section 6.2): a
heavy-hitters service can *shard* its ingest path -- hash-partition the
token stream across ``N`` shards and let each shard maintain its own
summary -- without giving up certified answers.  The partitions are
key-disjoint, so the owner shard's summary answers for each key with the
shards' own ``(A, B)`` guarantee.  The service's shards are
:class:`~repro.algorithms.array_summary.ArraySummary` instances; this
module takes any estimator factory.  Snapshots, persisted snapshot files
and crash recovery all combine the shards by their union
(:class:`~repro.core.merging.DisjointUnion`); the ``(3A, A+B)`` merge of
Theorem 11 is left to summaries whose key spaces overlap.

The shard layer takes admitted chunks only: :meth:`ShardedSummarizer.ingest`
accepts an :class:`~repro.engine.codec.EncodedChunk`, whose
:class:`~repro.engine.codec.TokenCodec` admitted every token and weight
at intern time, and raises ``TypeError`` on anything else.  Placement is
one kernel, :func:`repro.engine.codec.partition_chunk`, reached through
:func:`partition_batch` by the live shards and by crash recovery alike.

:class:`ShardedSummarizer` keeps each shard as a summary behind a lock
in this interpreter.  :meth:`ShardedSummarizer.ingest` partitions the
chunk and applies each part under its shard's lock, in the caller's
thread, through the batched fast path
(:meth:`~repro.algorithms.base.FrequencyEstimator.update_batch`) before
it returns.  There are no worker threads or queues: summary updates in
Python hold the GIL, so they would buy no parallelism, and the service
already serialises ingest under its ingest lock.  ``num_shards`` is a
placement and merge concept.  This ``thread`` backend is the only one
the service runs.

An explicit ``backend="process"`` instead puts each shard in a
``multiprocessing`` worker process fed over a pipe carrying the
CRC-framed chunk records of :func:`repro.service.wal.encode_chunk_record`.
Every worker receives the full record and applies only its own sub-chunk
(placement via the same ``partition_chunk``, so summaries are
bit-identical between backends), and answers snapshot/checkpoint
requests with :func:`repro.serialization.dump` payloads.  A worker that
dies is restarted with an empty summary and its error surfaces on the
next call.  It is kept only as a measured comparison row: it loses to
one thread shard on every benchmark so far.

Tokens are routed by :func:`shard_for` (a stable fingerprint modulo the
shard count; ``partition_chunk`` computes it over a chunk's cached
fingerprint column, and :mod:`repro.distributed.partition` uses the same
rule for cross-site hash partitioning, so in-process shards, worker
processes and remote sites all agree on who owns an item).

Shard summaries are read either live (:meth:`shard_summaries`, after a
:meth:`flush` barrier -- a no-op on threads) or as consistent copies
taken on a batch boundary (:meth:`snapshot_summaries`) while ingestion
keeps running -- the latter is what
:class:`repro.service.snapshots.SnapshotManager` builds queryable
snapshots from.  The thread backend takes each copy with the estimator's
:meth:`~repro.algorithms.base.FrequencyEstimator.copy` under the shard's
lock (for an ``ArraySummary``, which never writes into its arrays, a copy
of a few references), so a snapshot barely stalls a shard; a checkpoint
serialises those copies after the lock is released.  The
process backend has no shared memory to copy from: its workers answer
with :func:`repro.serialization.dump` payloads instead.
"""

from __future__ import annotations

# repro-lint: hot-path

import atexit
import json
import multiprocessing

# `multiprocessing.util` registers the atexit reaper that terminates
# daemon worker processes at interpreter exit.  Plain ``import
# multiprocessing`` does NOT pull it in -- it loads lazily at the first
# ``Process`` construction, which would be *after*
# ``_ProcessShardBackend.__init__`` registered its own exit handler and
# would therefore run *before* it under atexit's LIFO order, terminating
# workers while the supervisor still believes it should restart them.
# Importing it eagerly pins the order: reaper first in, last out.
import multiprocessing.util  # noqa: F401
import os
import pickle
import signal
import struct
import threading
import time
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from repro.algorithms.base import FrequencyEstimator, Item
from repro.engine.codec import EncodedChunk, TokenCodec, partition_chunk, require_chunk
from repro.sketches.hashing import shard_for

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from multiprocessing.connection import Connection

    from repro.service.tracing import Trace

EstimatorFactory = Callable[[], FrequencyEstimator]

#: Default bound on the chunks in flight to each process-backend worker.
#: Small enough that a stalled worker exerts backpressure on producers
#: quickly, large enough to keep workers busy across producer hiccups.
DEFAULT_QUEUE_DEPTH = 64

#: The supported shard backends (see the module docstring).
BACKENDS = ("thread", "process")

#: Poll interval for every bounded wait on a worker process that must
#: recheck its liveness: a producer blocked on a full pipe, a flush
#: barrier, a snapshot round trip.  Small enough that a dead worker
#: surfaces as a prompt ``RuntimeError`` instead of a hang; large enough
#: that the recheck is free next to the work it guards.
_LIVENESS_POLL_SECONDS = 0.05

#: How long close() waits for a worker process to drain and exit before
#: escalating to terminate().
_CLOSE_JOIN_SECONDS = 10.0


def partition_batch(chunk: EncodedChunk, num_shards: int) -> dict[int, EncodedChunk]:
    """Split an admitted chunk into its non-empty per-shard parts.

    Placement is :func:`repro.engine.codec.partition_chunk`, the one
    placement kernel (bit-identical to per-item :func:`shard_for`); the
    parts share the chunk's codec, so nothing is re-encoded.  One shard
    takes the chunk itself, without a copy.  Only shards that receive
    tokens appear in the result.  The live thread shards and crash
    recovery both route through here, so replay places every token where
    live ingest did.
    """
    if len(chunk) == 0:
        return {}
    if num_shards == 1:
        return {0: chunk}
    return {
        shard: part
        for shard, part in enumerate(partition_chunk(chunk, num_shards))
        if len(part)
    }


class _Shard:
    """One in-interpreter shard: a summary, the lock that guards it, counters."""

    def __init__(self, shard_id: int, estimator: FrequencyEstimator) -> None:
        self.shard_id = shard_id
        self.estimator = estimator
        self.lock = threading.Lock()
        self.error: BaseException | None = None
        self.tokens_applied = 0
        self.batches_applied = 0
        self.batches_failed = 0

    def apply(self, part: EncodedChunk, trace: "Trace | None") -> bool:
        """Apply one part in the caller's thread; False if it was dropped."""
        if trace is not None:
            started = time.perf_counter()
        try:
            with self.lock:
                self.estimator.update_batch(part)
                self.tokens_applied += len(part)
                self.batches_applied += 1
        # repro-lint: boundary inline shard apply; the failed part is dropped and its error surfaces on the next ingest/flush
        except Exception as exc:
            # The first error wins until surfaced.
            with self.lock:
                self.batches_failed += 1
                if self.error is None:
                    self.error = exc
            return False
        if trace is not None:
            # Outside the shard lock: add_span takes the trace's own lock.
            trace.add_span(
                "shard_apply",
                time.perf_counter() - started,
                shard=self.shard_id,
                tokens=len(part),
            )
        return True


class _ThreadShardBackend:
    """The in-interpreter backend: each part is applied inline under its
    shard's lock (see the module docstring for why there are no threads)."""

    name = "thread"

    def __init__(self, make_estimator: EstimatorFactory, num_shards: int) -> None:
        self.num_shards = num_shards
        self.shards = [
            _Shard(shard_id, make_estimator()) for shard_id in range(num_shards)
        ]

    # -- lifecycle ----------------------------------------------------- #

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def workers_alive(self) -> bool:
        return True

    # -- ingest -------------------------------------------------------- #

    def dispatch(
        self,
        chunk: EncodedChunk,
        trace: "Trace | None",
        record: bytes | None,
        account: Callable[[int, int], None],
    ) -> int:
        # The pre-framed record (when the caller has one) is a WAL/wire
        # concern; the thread backend applies the in-memory chunk.
        del record
        for shard_id, part in partition_batch(chunk, self.num_shards).items():
            if self.shards[shard_id].apply(part, trace):
                account(len(part), 1)
        return len(chunk)

    # -- barriers and errors ------------------------------------------- #

    def flush(self) -> None:
        pass

    def pop_error(self) -> tuple[int, BaseException | str] | None:
        for shard in self.shards:
            with shard.lock:
                error = shard.error
                shard.error = None
            if error is not None:
                return shard.shard_id, error
        return None

    def inject_error(self, shard_id: int, error: BaseException) -> None:
        with self.shards[shard_id].lock:
            self.shards[shard_id].error = error

    # -- durability and reads ------------------------------------------ #

    def restore(self, estimators: Sequence[FrequencyEstimator]) -> None:
        for shard, estimator in zip(self.shards, estimators, strict=True):
            shard.estimator = estimator

    def payloads(self) -> list[dict[str, Any]]:
        from repro import serialization

        # Encoded outside the shard locks: only the structural copy stalls
        # a shard's ingest.
        return [serialization.dump(copy) for copy in self.snapshot_copies()]

    def summaries_live(self) -> list[FrequencyEstimator]:
        return [shard.estimator for shard in self.shards]

    def snapshot_copies(self) -> list[FrequencyEstimator]:
        copies = []
        for shard in self.shards:
            with shard.lock:
                copies.append(shard.estimator.copy())
        return copies

    def stream_length(self) -> float:
        total = 0.0
        for shard in self.shards:
            with shard.lock:
                total += shard.estimator.stream_length
        return total

    def shard_stats(self) -> list[dict[str, float]]:
        stats = []
        for shard in self.shards:
            with shard.lock:
                stats.append(
                    {
                        "shard": shard.shard_id,
                        "tokens_applied": shard.tokens_applied,
                        "batches_applied": shard.batches_applied,
                        "stream_length": shard.estimator.stream_length,
                        "counters_in_use": len(shard.estimator),
                        "pending_batches": 0,
                    }
                )
        return stats

    def queue_stats(self) -> list[dict[str, float]]:
        return [
            {
                "shard": shard.shard_id,
                "pending_batches": 0,
                "tokens_applied": shard.tokens_applied,
                "batches_applied": shard.batches_applied,
                "batches_failed": shard.batches_failed,
            }
            for shard in self.shards
        ]


# --------------------------------------------------------------------------- #
# Process backend wire format (parent <-> shard worker process)
# --------------------------------------------------------------------------- #
#
# Requests ride the data pipe in FIFO order, so a flush ping or snapshot
# request doubles as a barrier behind every chunk sent before it:
#
#   b"C" + <seq u32, traced u8> + <CRC-framed chunk record>   apply a chunk
#   b"F" + <seq u32>                                          flush ping
#   b"S" + <seq u32>                                          snapshot request
#   b"Q"                                                      drain and exit
#
# Replies come back on the result pipe:
#
#   b"A" + _DONE (per-chunk completion: counters + apply duration)
#          [+ utf-8 error text when ok == 0]
#   b"F" + <seq u32>                                          flush ack
#   b"S" + <seq u32, kind u8> + payload                       snapshot reply
#
# A snapshot reply of kind 0 is the canonical JSON encoding of
# serialization.dump (checkpoint currency); kind 1 is a pickle fallback
# for estimator classes outside the serialisation registry.

_CHUNK_HEADER = struct.Struct("<IB")  # seq, traced
_SEQ_STRUCT = struct.Struct("<I")
_SNAP_HEADER = struct.Struct("<IB")  # seq, kind
#: seq, traced, ok, tokens, duration, tokens_applied, batches_applied,
#: batches_failed, counters_in_use, stream_length
_DONE = struct.Struct("<IBBQdQQQQd")

_SNAP_JSON = 0
_SNAP_PICKLE = 1
_SNAP_ERROR = 2


def _shard_process_main(
    shard_id: int,
    num_shards: int,
    estimator: FrequencyEstimator,
    data_conn: "Connection",
    result_conn: "Connection",
) -> None:
    """Entry point of one shard worker process.

    Decodes each CRC-framed chunk record against its own codec (the
    record carries the compacted vocabulary, so no codec object crosses
    the process boundary), selects its own sub-chunk with the shared
    ``partition_chunk`` placement, and applies it through ``update_batch`` --
    the same two calls the thread backend makes, so per-shard summaries
    are bit-identical between backends.
    """
    # Late imports keep the child's work self-contained; both modules are
    # already loaded in the forked image.
    from repro import serialization
    from repro.service.wal import parse_chunk_record

    # The parent handles shutdown (the b"Q" message / pipe EOF); a
    # terminal-delivered SIGINT must not kill workers mid-batch.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    codec = TokenCodec()
    tokens_applied = 0
    batches_applied = 0
    batches_failed = 0
    counters_in_use = 0
    try:
        while True:
            try:
                message = data_conn.recv_bytes()
            except (EOFError, OSError):
                # repro-lint: boundary parent closed the pipe; treat as shutdown
                return
            tag = message[:1]
            if tag == b"C":
                seq, traced = _CHUNK_HEADER.unpack_from(message, 1)
                record = memoryview(message)[1 + _CHUNK_HEADER.size :]
                started = time.perf_counter()
                ok = 1
                tokens = 0
                error_text = b""
                try:
                    payload = parse_chunk_record(record)
                    chunk = serialization.load_chunk_bytes(payload, codec)
                    if num_shards > 1:
                        sub_chunk = partition_chunk(chunk, num_shards)[shard_id]
                    else:
                        sub_chunk = chunk
                    tokens = len(sub_chunk)
                    if tokens:
                        estimator.update_batch(sub_chunk, None)
                        tokens_applied += tokens
                        batches_applied += 1
                        counters_in_use = len(estimator)
                # repro-lint: boundary shard-process apply loop; the failed batch is dropped and reported to the parent
                except Exception as exc:
                    ok = 0
                    tokens = 0
                    batches_failed += 1
                    error_text = f"{type(exc).__name__}: {exc}".encode(
                        "utf-8", "replace"
                    )
                duration = time.perf_counter() - started
                result_conn.send_bytes(
                    b"A"
                    + _DONE.pack(
                        seq,
                        traced,
                        ok,
                        tokens,
                        duration,
                        tokens_applied,
                        batches_applied,
                        batches_failed,
                        counters_in_use,
                        estimator.stream_length,
                    )
                    + error_text
                )
            elif tag == b"F":
                result_conn.send_bytes(b"F" + message[1:5])
            elif tag == b"S":
                (seq,) = _SEQ_STRUCT.unpack_from(message, 1)
                try:
                    blob = json.dumps(
                        serialization.dump(estimator), sort_keys=True
                    ).encode()
                    kind = _SNAP_JSON
                except serialization.SerializationError:
                    # Estimator class outside the serialisation registry
                    # (e.g. a sketch in a differential test): fall back to
                    # pickle so snapshot_summaries() still works.
                    try:
                        blob = pickle.dumps(estimator)
                        kind = _SNAP_PICKLE
                    # repro-lint: boundary a snapshot that cannot serialise must not kill a healthy worker
                    except Exception as exc:
                        blob = f"{type(exc).__name__}: {exc}".encode(
                            "utf-8", "replace"
                        )
                        kind = _SNAP_ERROR
                result_conn.send_bytes(b"S" + _SNAP_HEADER.pack(seq, kind) + blob)
            elif tag == b"Q":
                return
    finally:
        try:
            result_conn.close()
            data_conn.close()
        except OSError:  # repro-lint: boundary best-effort fd cleanup on exit
            pass


class _ProcessShardSlot:
    """Parent-side handle for one shard worker process.

    All mutable state is guarded by ``state`` (one condition per slot):
    producers wait on it for queue room, flush/snapshot callers wait on
    it for their reply, and the reader thread notifies it as completions
    arrive.
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.state = threading.Condition(threading.Lock())
        # Everything below is guarded by ``state``.
        self.generation = 0
        self.process: Any = None
        self.data_conn: "Connection | None" = None
        self.reader: threading.Thread | None = None
        self.ready = False
        self.seq = 0
        self.inflight = 0
        self.error: str | None = None
        self.tokens_applied = 0
        self.batches_applied = 0
        self.batches_failed = 0
        self.counters_in_use = 0
        self.stream_length = 0.0
        self.restarts = 0
        self.traces: dict[int, "Trace"] = {}
        self.flush_acks: set[int] = set()
        self.snapshots: dict[int, tuple[int, bytes]] = {}

    def pid(self) -> int | None:
        process = self.process
        return process.pid if process is not None else None


def _process_rss_bytes(pid: int | None) -> float:
    """Resident set size of ``pid`` via /proc (0.0 when unavailable)."""
    if pid is None:
        return 0.0
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            fields = handle.read().split()
        return float(int(fields[1]) * os.sysconf("SC_PAGE_SIZE"))
    except (OSError, IndexError, ValueError):  # repro-lint: boundary non-Linux or raced exit; metric reads 0
        return 0.0


class _ProcessShardBackend:
    """Shard workers as supervised ``multiprocessing`` processes.

    Broadcast design: every worker receives the full chunk record and
    selects its own sub-chunk, so the producer does no per-shard
    partitioning or re-encoding -- the single GIL-bound parent thread
    only moves bytes, and the partition + decode + apply work runs on
    the workers' own cores.
    """

    name = "process"

    def __init__(
        self,
        make_estimator: EstimatorFactory,
        num_shards: int,
        queue_depth: int,
    ) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the process shard backend requires the 'fork' start method "
                "(unavailable on this platform); use the thread backend"
            )
        self._ctx = multiprocessing.get_context("fork")
        self.make_estimator = make_estimator
        self.num_shards = num_shards
        self.queue_depth = queue_depth
        self.slots = [_ProcessShardSlot(shard_id) for shard_id in range(num_shards)]
        self._restored: list[FrequencyEstimator] | None = None
        # repro-lint: allow[L006] single-writer: close()/_atexit_close() are the only writers, reader threads only read
        self._closing = False
        self._restart_threads: list[threading.Thread] = []
        self._restart_lock = threading.Lock()
        # Interpreter-exit guard for backends abandoned without close().
        # atexit runs LIFO and multiprocessing registered its reaper when
        # this module eagerly imported `multiprocessing.util` (see the
        # import block), so this handler runs *first*: it stops the
        # supervisor before the reaper terminates the daemon workers --
        # otherwise the reader threads would see those deaths as crashes
        # and fork replacement workers mid-shutdown, after the reaper
        # already ran, leaking them past interpreter exit.
        atexit.register(self._atexit_close)

    # -- lifecycle ----------------------------------------------------- #

    def start(self) -> None:
        restored = self._restored
        # repro-lint: allow[L006] single-writer: set by restore() and consumed once here, both before any worker exists
        self._restored = None
        for slot in self.slots:
            estimator = (
                restored[slot.shard_id] if restored is not None
                else self.make_estimator()
            )
            self._spawn(slot, estimator, restart=False)

    def _spawn(
        self, slot: _ProcessShardSlot, estimator: FrequencyEstimator, restart: bool
    ) -> None:
        """Start one worker process and its reader thread; flips ready."""
        data_recv, data_send = self._ctx.Pipe(duplex=False)
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shard_process_main,
            args=(slot.shard_id, self.num_shards, estimator, data_recv, result_send),
            name=f"shard-proc-{slot.shard_id}",
            daemon=True,
        )
        process.start()
        # The child inherited its ends across the fork; drop the parent's
        # duplicates so a dead child reads as EOF/EPIPE, not a hang.
        data_recv.close()
        result_send.close()
        with slot.state:
            slot.generation += 1
            generation = slot.generation
            slot.process = process
            slot.data_conn = data_send
            slot.inflight = 0
            slot.traces.clear()
            slot.flush_acks.clear()
            slot.snapshots.clear()
            if restart:
                slot.restarts += 1
            slot.ready = True
            reader = threading.Thread(
                target=self._reader_loop,
                args=(slot, result_recv, generation),
                name=f"shard-{slot.shard_id}-reader",
                daemon=True,
            )
            slot.reader = reader
            slot.state.notify_all()
        reader.start()

    def _atexit_close(self) -> None:
        """Stop supervision at interpreter exit; workers are reaped next.

        Restarting here would fork workers nobody will ever terminate
        (multiprocessing's reaper has not run yet but will not run
        again for them).  The daemon workers themselves are terminated
        by that reaper immediately after this handler.
        """
        # repro-lint: allow[L006] single-writer: interpreter-exit path; reader threads only test the flag
        self._closing = True

    def close(self) -> None:
        atexit.unregister(self._atexit_close)
        # repro-lint: allow[L006] single-writer: close() is the only writer; reader threads only test the flag
        self._closing = True
        with self._restart_lock:
            restart_threads = list(self._restart_threads)
        for thread in restart_threads:
            thread.join()
        # FIFO pipes make b"Q" a drain barrier: it lands behind every
        # pending chunk, so a live worker applies its backlog first.
        for slot in self.slots:
            with slot.state:
                conn = slot.data_conn
                slot.ready = False
            if conn is not None:
                try:
                    conn.send_bytes(b"Q")
                except (BrokenPipeError, OSError):  # repro-lint: boundary worker already dead; nothing to drain
                    pass
        for slot in self.slots:
            process = slot.process
            if process is not None:
                process.join(timeout=_CLOSE_JOIN_SECONDS)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=_CLOSE_JOIN_SECONDS)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join()
            with slot.state:
                conn = slot.data_conn
                slot.data_conn = None
            if conn is not None:
                conn.close()
            reader = slot.reader
            if reader is not None:
                reader.join(timeout=_CLOSE_JOIN_SECONDS)

    def workers_alive(self) -> bool:
        for slot in self.slots:
            with slot.state:
                if not slot.ready:
                    return False
        return True

    # -- supervision --------------------------------------------------- #

    def _reader_loop(
        self, slot: _ProcessShardSlot, conn: "Connection", generation: int
    ) -> None:
        """Drain one worker's result pipe; detect its death on EOF."""
        from repro.service.tracing import Trace  # noqa: F401 - annotation only

        while True:
            try:
                message = conn.recv_bytes()
            except (EOFError, OSError):
                # repro-lint: boundary worker exit (or SIGKILL): flip readiness and hand off to the supervisor
                break
            tag = message[:1]
            if tag == b"A":
                fields = _DONE.unpack_from(message, 1)
                (seq, traced, ok, tokens, duration) = fields[:5]
                trace = None
                with slot.state:
                    if slot.generation != generation:
                        break
                    slot.inflight -= 1
                    (
                        slot.tokens_applied,
                        slot.batches_applied,
                        slot.batches_failed,
                        slot.counters_in_use,
                        slot.stream_length,
                    ) = fields[5:]
                    if not ok:
                        text = message[1 + _DONE.size :].decode("utf-8", "replace")
                        if slot.error is None:
                            slot.error = (
                                "failed while applying a batch "
                                f"(the failed batch was dropped): {text}"
                            )
                    if traced:
                        trace = slot.traces.pop(seq, None)
                    slot.state.notify_all()
                if trace is not None and tokens:
                    # Outside the slot lock: add_span takes the trace's own
                    # lock and must not nest under ours.
                    trace.add_span(
                        "shard_apply",
                        duration,
                        shard=slot.shard_id,
                        tokens=int(tokens),
                    )
            elif tag == b"F":
                (seq,) = _SEQ_STRUCT.unpack_from(message, 1)
                with slot.state:
                    slot.flush_acks.add(seq)
                    slot.state.notify_all()
            elif tag == b"S":
                seq, kind = _SNAP_HEADER.unpack_from(message, 1)
                blob = bytes(memoryview(message)[1 + _SNAP_HEADER.size :])
                with slot.state:
                    slot.snapshots[seq] = (kind, blob)
                    slot.state.notify_all()
        conn.close()
        with slot.state:
            if slot.generation != generation:
                return
            slot.ready = False
            if not self._closing and slot.error is None:
                slot.error = "worker process exited unexpectedly (supervisor restarting it)"
            slot.state.notify_all()
        if not self._closing:
            self._schedule_restart(slot, generation)

    def _schedule_restart(self, slot: _ProcessShardSlot, generation: int) -> None:
        thread = threading.Thread(
            target=self._restart,
            args=(slot, generation),
            name=f"shard-{slot.shard_id}-restart",
            daemon=True,
        )
        with self._restart_lock:
            if self._closing:
                return
            self._restart_threads.append(thread)
        thread.start()

    def _restart(self, slot: _ProcessShardSlot, generation: int) -> None:
        """Supervisor path: respawn a dead worker with an empty summary.

        The tokens the old worker held are gone; the death was recorded
        as the shard's error and surfaces on the next call.
        """
        with slot.state:
            if self._closing or slot.generation != generation:
                return
        process = slot.process
        if process is not None:
            process.join(timeout=_CLOSE_JOIN_SECONDS)
        if self._closing:
            return
        self._spawn(slot, self.make_estimator(), restart=True)

    # -- ingest -------------------------------------------------------- #

    def dispatch(
        self,
        chunk: EncodedChunk,
        trace: "Trace | None",
        record: bytes | None,
        account: Callable[[int, int], None],
    ) -> int:
        count = len(chunk)
        if count == 0:
            return 0
        if record is None:
            from repro.service.wal import encode_chunk_record

            record = encode_chunk_record(chunk)
        first_error: RuntimeError | None = None
        accounted_tokens = False
        for slot in self.slots:
            try:
                self._send_chunk(slot, record, trace)
            # repro-lint: boundary best-effort broadcast: live shards still get their parts; the dead one's error is raised below
            except RuntimeError as exc:
                if first_error is None:
                    first_error = exc
                continue
            # Chunk tokens count once (the shards partition among
            # themselves); batches count per record delivered.
            account(0 if accounted_tokens else count, 1)
            accounted_tokens = True
        if first_error is not None:
            raise first_error
        return count

    def _send_chunk(
        self, slot: _ProcessShardSlot, record: bytes, trace: "Trace | None"
    ) -> None:
        with slot.state:
            while True:
                if not slot.ready:
                    raise RuntimeError(
                        f"shard {slot.shard_id} worker process is not running "
                        "(dead or restarting); batch not enqueued"
                    )
                if slot.inflight < self.queue_depth:
                    break
                slot.state.wait(_LIVENESS_POLL_SECONDS)
            slot.seq = (slot.seq + 1) & 0xFFFFFFFF
            seq = slot.seq
            traced = 1 if trace is not None else 0
            if trace is not None:
                slot.traces[seq] = trace
                if len(slot.traces) > 1024:
                    # A reader stall must not grow this unboundedly; the
                    # oldest trace just loses its shard_apply span.
                    slot.traces.pop(next(iter(slot.traces)))
            conn = slot.data_conn
            assert conn is not None  # ready implies a live connection
            try:
                # Held under the slot lock: interleaved send_bytes from two
                # producers would corrupt the pipe framing.
                conn.send_bytes(b"C" + _CHUNK_HEADER.pack(seq, traced) + record)
            except (BrokenPipeError, OSError) as exc:
                slot.ready = False
                if slot.error is None:
                    slot.error = "worker process died mid-send"
                raise RuntimeError(
                    f"shard {slot.shard_id} worker process died; batch not enqueued"
                ) from exc
            slot.inflight += 1

    # -- barriers and errors ------------------------------------------- #

    def flush(self) -> None:
        for slot in self.slots:
            self._flush_slot(slot)

    def _flush_slot(self, slot: _ProcessShardSlot) -> None:
        with slot.state:
            seq = self._send_control(slot, b"F")
            while seq not in slot.flush_acks:
                if not slot.ready:
                    raise RuntimeError(
                        f"shard {slot.shard_id} worker process died during flush"
                    )
                slot.state.wait(_LIVENESS_POLL_SECONDS)
            slot.flush_acks.discard(seq)

    def _send_control(self, slot: _ProcessShardSlot, tag: bytes) -> int:
        """Send a control ping; caller holds ``slot.state``."""
        if not slot.ready:
            raise RuntimeError(
                f"shard {slot.shard_id} worker process is not running "
                "(dead or restarting)"
            )
        slot.seq = (slot.seq + 1) & 0xFFFFFFFF
        seq = slot.seq
        conn = slot.data_conn
        assert conn is not None
        try:
            conn.send_bytes(tag + _SEQ_STRUCT.pack(seq))
        except (BrokenPipeError, OSError) as exc:
            slot.ready = False
            raise RuntimeError(
                f"shard {slot.shard_id} worker process died"
            ) from exc
        return seq

    def pop_error(self) -> tuple[int, BaseException | str] | None:
        for slot in self.slots:
            with slot.state:
                error = slot.error
                slot.error = None
            if error is not None:
                return slot.shard_id, error
        return None

    def inject_error(self, shard_id: int, error: BaseException) -> None:
        with self.slots[shard_id].state:
            self.slots[shard_id].error = (
                f"failed while applying a batch (the failed batch was "
                f"dropped): {type(error).__name__}: {error}"
            )

    # -- durability and reads ------------------------------------------ #

    def restore(self, estimators: Sequence[FrequencyEstimator]) -> None:
        self._restored = list(estimators)

    def _snapshot_slot(self, slot: _ProcessShardSlot) -> tuple[int, bytes]:
        with slot.state:
            seq = self._send_control(slot, b"S")
            while seq not in slot.snapshots:
                if not slot.ready:
                    raise RuntimeError(
                        f"shard {slot.shard_id} worker process died during "
                        "a snapshot request"
                    )
                slot.state.wait(_LIVENESS_POLL_SECONDS)
            kind, blob = slot.snapshots.pop(seq)
        if kind == _SNAP_ERROR:
            raise RuntimeError(
                f"shard {slot.shard_id} summary class has no serialisation "
                f"support and could not be pickled: {blob.decode('utf-8', 'replace')}"
            )
        return kind, blob

    def payloads(self) -> list[dict[str, Any]]:
        payloads = []
        for slot in self.slots:
            kind, blob = self._snapshot_slot(slot)
            if kind != _SNAP_JSON:
                raise RuntimeError(
                    f"shard {slot.shard_id} summary class has no serialisation "
                    "support; it cannot be checkpointed"
                )
            payloads.append(json.loads(blob.decode()))
        return payloads

    def summaries_live(self) -> list[FrequencyEstimator]:
        # No live references exist across a process boundary; callers get
        # the same snapshot copies the read path uses.
        return self.snapshot_copies()

    def snapshot_copies(self) -> list[FrequencyEstimator]:
        from repro import serialization

        copies = []
        for slot in self.slots:
            kind, blob = self._snapshot_slot(slot)
            if kind == _SNAP_JSON:
                copies.append(serialization.load(json.loads(blob.decode())))
            else:
                copies.append(pickle.loads(blob))
        return copies

    def stream_length(self) -> float:
        total = 0.0
        for slot in self.slots:
            with slot.state:
                total += slot.stream_length
        return total

    def shard_stats(self) -> list[dict[str, float]]:
        stats = []
        for slot in self.slots:
            with slot.state:
                stats.append(
                    {
                        "shard": slot.shard_id,
                        "tokens_applied": slot.tokens_applied,
                        "batches_applied": slot.batches_applied,
                        "stream_length": slot.stream_length,
                        "counters_in_use": slot.counters_in_use,
                        "pending_batches": slot.inflight,
                    }
                )
        return stats

    def queue_stats(self) -> list[dict[str, float]]:
        # Lock-free like the thread backend's: individually-consistent
        # reads of counters the reader threads maintain, plus the
        # supervisor columns the process metrics expose (restart count,
        # per-process RSS, liveness).
        return [
            {
                "shard": slot.shard_id,
                "pending_batches": slot.inflight,
                "tokens_applied": slot.tokens_applied,
                "batches_applied": slot.batches_applied,
                "batches_failed": slot.batches_failed,
                "restarts": slot.restarts,
                "alive": 1.0 if slot.ready else 0.0,
                "rss_bytes": _process_rss_bytes(slot.pid()),
            }
            for slot in self.slots
        ]


class ShardedSummarizer:
    """Hash-partitioned concurrent ingestion into per-shard summaries.

    Parameters
    ----------
    make_estimator:
        Factory for the per-shard summary (e.g.
        ``lambda: SpaceSaving(num_counters=1000)``).  Every shard gets its
        own instance; the same factory is reused as the target of Theorem
        11 merges (persisted snapshots, recovery).
    num_shards:
        Number of shards.
    queue_depth:
        Process backend only: bound on chunks in flight to each worker
        process; producers block (backpressure) when a worker's pipe is
        full.  The thread backend applies inline and has no queue.
    backend:
        ``"thread"`` (default) or ``"process"`` -- see the module
        docstring.

    Examples
    --------
    >>> from repro.algorithms import SpaceSaving
    >>> from repro.engine.codec import TokenCodec
    >>> chunk = TokenCodec().encode_chunk(["a", "b", "a", "c"])
    >>> with ShardedSummarizer(lambda: SpaceSaving(64), num_shards=2) as sharded:
    ...     _ = sharded.ingest(chunk)
    ...     total = sharded.stream_length
    >>> total
    4.0
    """

    def __init__(
        self,
        make_estimator: EstimatorFactory,
        num_shards: int,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        backend: str = "thread",
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown shard backend {backend!r}; expected one of {BACKENDS}"
            )
        self.make_estimator = make_estimator
        self.num_shards = num_shards
        self._backend: _ThreadShardBackend | _ProcessShardBackend
        if backend == "process":
            self._backend = _ProcessShardBackend(make_estimator, num_shards, queue_depth)
        else:
            self._backend = _ThreadShardBackend(make_estimator, num_shards)
        self._started = False
        self._closed = False
        # Guards the lifecycle flags, the stats counters, and the count of
        # producers currently inside ingest(); close() waits on it so the
        # backend shutdown always lands *behind* every in-flight batch.
        self._state = threading.Condition(threading.Lock())
        self._active_producers = 0
        self.tokens_enqueued = 0
        self.batches_enqueued = 0

    @property
    def backend_name(self) -> str:
        """Which backend holds the shards (``thread`` / ``process``)."""
        return self._backend.name

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> ShardedSummarizer:
        """Start the shard worker processes (idempotent; no-op on threads)."""
        with self._state:
            if self._closed:
                raise RuntimeError("summarizer is closed")
            if self._started:
                return self
            self._started = True
        self._backend.start()
        return self

    def close(self) -> None:
        """Stop ingest; on the process backend, drain and join the workers.

        Waits for in-flight ingest() calls to return before the backend
        shuts down, so no chunk can land behind a worker's stop message
        (which would drop its tokens).  A producer stuck on a dead worker
        process cannot stall this wait: its bounded send notices the dead
        worker and errors out.
        """
        with self._state:
            if self._closed:
                return
            self._closed = True
            while self._active_producers:
                self._state.wait()
            started = self._started
        if started:
            self._backend.close()

    def __enter__(self) -> ShardedSummarizer:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def started(self) -> bool:
        with self._state:
            return self._started

    @property
    def closed(self) -> bool:
        with self._state:
            return self._closed

    def workers_alive(self) -> bool:
        """True while every shard can apply chunks.

        Thread shards apply inline, so this is true between :meth:`start`
        and :meth:`close`.  Under the process backend a shard whose worker
        process died reads as not-alive until its replacement is running.
        """
        with self._state:
            if not self._started or self._closed:
                return False
        return self._backend.workers_alive()

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def shard_of(self, item: Item) -> int:
        """The shard that owns ``item``."""
        return shard_for(item, self.num_shards)

    def ingest(
        self,
        chunk: EncodedChunk,
        *,
        trace: Trace | None = None,
        record: bytes | None = None,
    ) -> int:
        """Route an admitted chunk to its shards; returns tokens routed.

        ``chunk`` is an :class:`~repro.engine.codec.EncodedChunk`: its
        codec admitted every token and weight at intern time, so the shard
        layer does no admission of its own.  Anything else raises
        ``TypeError`` before any shard changes; encode token lists with
        :meth:`~repro.engine.codec.TokenCodec.encode_chunk`.  Shards only
        *read* the chunk's codec, so one codec may feed every shard -- but
        interning is not thread-safe: encode on a single producer thread,
        or give each producer its own codec.

        ``record`` -- the pre-framed :func:`wal.encode_chunk_record` bytes
        of ``chunk`` when the caller already built (or received) them --
        lets the process backend forward the exact client/WAL bytes to the
        worker pipes with no re-serialisation; the thread backend ignores
        it.

        Thread backend: the chunk is split by :func:`partition_batch` and
        every part is applied under its shard's lock before this call
        returns.  A part whose ``update_batch`` raises is dropped and
        recorded as that shard's error, which the next
        ingest/:meth:`flush`/:meth:`raise_pending_errors` raises.  Process
        backend: the record is sent to every worker and applied
        asynchronously; a send blocks while a worker has ``queue_depth``
        chunks in flight (backpressure) and raises ``RuntimeError`` if the
        worker is dead rather than blocking forever.

        A sampled ``trace`` (see :mod:`repro.service.tracing`) rides
        along with each part and gets a ``shard_apply`` span per part
        applied: before this call returns on threads, possibly after it
        on the process backend.
        """
        require_chunk(chunk, "ShardedSummarizer.ingest")
        with self._state:
            if not self._started or self._closed:
                raise RuntimeError(
                    "summarizer must be started (and not closed) to ingest"
                )
            self._active_producers += 1
        try:
            self._raise_pending_errors()
            return self._backend.dispatch(chunk, trace, record, self._account)
        finally:
            with self._state:
                self._active_producers -= 1
                self._state.notify_all()

    def _account(self, tokens: int, batches: int) -> None:
        """Roll enqueue stats as each part is applied or sent.

        Called by the backends once per part, *inside* their fan-out
        loops: if a later shard's part fails, the parts already delivered
        stay applied, and ``queue_stats()``-backed metrics must agree with
        those applied totals.
        """
        with self._state:
            self.tokens_enqueued += tokens
            self.batches_enqueued += batches

    def flush(self) -> None:
        """Block until every ingested chunk has been applied to its shard.

        Thread shards apply inline, so there is nothing to wait for; this
        only raises a recorded shard error.  On the process backend it
        waits for every worker, and raises ``RuntimeError`` when a worker
        process died with chunks outstanding -- those are lost with it.
        """
        self._backend.flush()
        self._raise_pending_errors()

    def raise_pending_errors(self) -> None:
        """Surface any recorded shard failure to the caller.

        Public so ingest boundaries with side effects (the WAL append in
        :meth:`repro.service.server.HeavyHittersService._ingest`) can
        fail *before* committing a chunk that the shards would then reject.
        """
        self._raise_pending_errors()

    def _raise_pending_errors(self) -> None:
        """Surface a shard failure once, then let the service recover.

        The error is cleared after being raised: the batch that triggered
        it is dropped (its tokens are lost from the shard's summary), but
        subsequent ingests proceed instead of the whole service staying
        poisoned by one bad batch.
        """
        entry = self._backend.pop_error()
        if entry is None:
            return
        shard_id, error = entry
        if isinstance(error, BaseException):
            raise RuntimeError(
                f"shard {shard_id} failed while applying a batch "
                "(the failed batch was dropped)"
            ) from error
        raise RuntimeError(f"shard {shard_id} {error}")

    def inject_shard_error(self, shard_id: int, error: BaseException) -> None:
        """Record ``error`` as if shard ``shard_id`` failed a batch.

        Fault-injection hook for tests: the next ingest/flush surfaces it
        through :meth:`raise_pending_errors` exactly like a real worker
        failure, regardless of backend.
        """
        self._backend.inject_error(shard_id, error)

    # ------------------------------------------------------------------ #
    # Durability hooks (checkpoint / crash recovery)
    # ------------------------------------------------------------------ #

    def restore_shards(self, estimators: Sequence[FrequencyEstimator]) -> None:
        """Install recovered per-shard summaries (before :meth:`start`).

        Crash recovery rebuilds each shard's summary from the latest
        checkpoint plus WAL replay and swaps them in here; shard ``i``
        must hold exactly the items :func:`shard_for` routes to ``i``
        (replay uses the same placement, so this holds by construction).
        """
        if len(estimators) != self.num_shards:
            raise ValueError(
                f"expected {self.num_shards} shard summaries, got {len(estimators)}"
            )
        with self._state:
            if self._started or self._closed:
                raise RuntimeError(
                    "shard state can only be restored before the summarizer starts"
                )
            self._backend.restore(estimators)

    def shard_payloads(self) -> list[dict[str, Any]]:
        """Consistent serialised per-shard payloads (checkpoint contents).

        Each payload sits on a batch boundary (encoded from the copy
        :meth:`snapshot_summaries` takes in the thread backend, after the
        shard's lock is released; answered between batches by the worker
        process itself in the process backend).  The checkpoint writer
        persists the dictionaries directly.
        """
        return self._backend.payloads()

    # ------------------------------------------------------------------ #
    # Reading the shards
    # ------------------------------------------------------------------ #

    def shard_summaries(self) -> list[FrequencyEstimator]:
        """The per-shard summaries, after a full flush barrier.

        Thread backend: the shards' own live instances -- only read them
        while no further ingest is in flight (use
        :meth:`snapshot_summaries` otherwise).  Process backend: no live
        reference can cross the process boundary, so these are the same
        consistent copies :meth:`snapshot_summaries` returns.
        """
        self.flush()
        return self._backend.summaries_live()

    def snapshot_summaries(self) -> list[FrequencyEstimator]:
        """Consistent, independent copies of every shard summary.

        Each copy sits on a batch boundary (a structural
        :meth:`~repro.algorithms.base.FrequencyEstimator.copy` under the
        shard's lock in the thread backend; a snapshot request answered
        between batches by the worker process in the process backend);
        ingestion on the other shards continues undisturbed.
        This is the read path the snapshot layer uses while the service
        keeps ingesting.
        """
        return self._backend.snapshot_copies()

    @property
    def stream_length(self) -> float:
        """Total weight applied across all shards so far.

        Under the process backend this reads the parent's completion
        counters, which trail the workers by at most the in-flight pipe
        contents; a :meth:`flush` makes it exact.
        """
        return self._backend.stream_length()

    def shard_stats(self) -> list[dict[str, float]]:
        """Per-shard bookkeeping (applied tokens, stream length, counters)."""
        return self._backend.shard_stats()

    def queue_stats(self) -> list[dict[str, float]]:
        """Lock-free per-shard progress counters, cheap enough per scrape.

        Unlike :meth:`shard_stats` this never blocks on a shard applying
        a batch; the integer reads are each individually consistent.
        ``pending_batches`` counts chunks in flight to a worker process
        (always 0 on threads, which apply inline).  The process backend
        adds its supervisor columns: ``restarts``, ``alive`` and
        ``rss_bytes`` per worker process.
        """
        return self._backend.queue_stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSummarizer(shards={self.num_shards}, "
            f"backend={self._backend.name}, enqueued={self.tokens_enqueued})"
        )
