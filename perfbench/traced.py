"""The traced run: the same chunks through each layer's public calls.

Every call into a layer is wrapped in a span (name, start, end, parent,
chunk id) recorded by :class:`SpanRecorder`; the spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl`` when the run ends.
Layers that report their own sub-steps through the service's trace hook
(shard workers' ``shard_apply``, the WAL's ``wal_fsync``) are handed a
:class:`SpanSink`, which turns each reported duration into a span under
the call that caused it.

Stage names match ``repro.service.tracing``'s spans.  Per chunk the
binary path runs client encode -> record encode -> decode, the NDJSON
path runs request build/parse -> admission -> record encode, and the
chunk of the workload's own path continues through WAL append, shard
enqueue (apply on the shard threads), shard wait and audit.  The ladder
adds up the stages of the workload's path and compares the sum with the
ns/token of an untraced closed-loop run against a real server.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.service.snapshots as snapshots_module
from repro import serialization
from repro.algorithms.space_saving import SpaceSaving
from repro.engine.codec import TokenCodec, partition_chunk
from repro.service.audit import AccuracyAuditor
from repro.service.recovery import recover
from repro.service.sharding import ShardedSummarizer
from repro.service.snapshots import SnapshotManager
from repro.service.wal import WriteAheadLog, encode_chunk_record, parse_chunk_record
from repro.service.wire import SOCKET_FRAME_INGEST, encode_socket_frame

from perfbench import loadgen, session
from perfbench.loadgen import IngestPhase, QuerySeries, Tally
from perfbench.oracle import StreamOracle, Verdict
from perfbench.server import HOST_CPUS, ServerProcess
from perfbench.session import K, PLAN, Metrics, Plan, RunOutcome
from perfbench.workloads import Inputs, Workload

NUM_SHARDS = 2
NUM_COUNTERS = 1_000

#: Stages whose ns/token add up to the ingest path, per wire encoding.
#: Apply enters as ``shard_wait``, the wall time until both shards have
#: applied the chunk: the two shard threads' ``shard_apply`` spans overlap
#: under the interpreter lock, so their sum double-counts.
LADDER = {
    "binary": ("client_encode", "record_encode", "decode", "wal_append",
               "shard_enqueue", "shard_wait", "audit_observe"),
    "json": ("json_request", "admission", "record_encode", "wal_append",
             "shard_enqueue", "shard_wait", "audit_observe"),
}


class SpanRecorder:
    """In-memory spans, written out once at the end of the run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def add(self, span_id: int, name: str, start: float, end: float,
            parent: int | None, chunk: int | None, **attrs) -> None:
        span = {"id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "chunk": chunk, **attrs}
        with self._lock:
            self.spans.append(span)

    def new_id(self) -> int:
        return next(self._ids)

    @contextmanager
    def span(self, name: str, parent: int | None = None, chunk: int | None = None, **attrs):
        """Time the body; yields the span id for children to point at."""
        span_id = self.new_id()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.add(span_id, name, start, time.perf_counter(), parent, chunk, **attrs)

    def named(self, name: str, **match) -> list[dict]:
        return [
            span for span in self.spans
            if span["name"] == name and all(span.get(key) == value for key, value in match.items())
        ]

    def seconds(self, name: str, **match) -> float:
        return sum(span["end"] - span["start"] for span in self.named(name, **match))

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda span: span["start"]):
                out.write(json.dumps(span) + "\n")


class SpanSink:
    """The service's trace hook (``add_span(name, seconds, **attrs)``).

    Layers call it right after the step they time, so the span ends now
    and starts ``seconds`` earlier.
    """

    def __init__(self, recorder: SpanRecorder, parent: int, chunk: int) -> None:
        self.recorder = recorder
        self.parent = parent
        self.chunk = chunk

    def add_span(self, name: str, seconds: float, **attrs) -> None:
        end = time.perf_counter()
        self.recorder.add(
            self.recorder.new_id(), name, end - seconds, end, self.parent, self.chunk, **attrs
        )


class Pipeline:
    """One in-process copy of the ingest path's layers."""

    def __init__(self, wal_dir: Path, workload: Workload) -> None:
        self.binary = workload.binary
        self.client_codec = TokenCodec()
        self.server_codec = TokenCodec()
        self.json_codec = TokenCodec()
        self.tag_memo: dict = {}
        self.untag_memo: dict = {}
        self.wal = WriteAheadLog(wal_dir, fsync="interval")
        self.sharded = ShardedSummarizer(
            lambda: SpaceSaving(NUM_COUNTERS), num_shards=NUM_SHARDS, backend="thread"
        ).start()
        self.auditor = AccuracyAuditor()
        self.tokens = 0
        self.frame_bytes = 0

    def close(self) -> None:
        self.sharded.close()
        self.wal.close()

    def _request_line(self, items: list) -> bytes:
        """The NDJSON ingest line, tagged as ``ServiceClient.ingest`` does."""
        request: dict = {"op": "ingest", "items": items}
        if not serialization.json_lossless(items[0]):
            memo = self.tag_memo
            tagged = []
            for item in items:
                key = memo.get(item)
                if key is None:
                    key = memo[item] = serialization.encode_item_key(item)
                tagged.append(key)
            request = {"op": "ingest", "items": tagged, "encoding": "tagged"}
        return (json.dumps(request) + "\n").encode()

    def _parse_line(self, line: bytes) -> list:
        """``_RequestHandler``'s parse plus the tagged-key decode."""
        request = json.loads(line.strip())
        items = request["items"]
        if request.get("encoding") == "tagged":
            memo = self.untag_memo
            decoded = []
            for key in items:
                token = memo.get(key)
                if token is None:
                    token = memo[key] = serialization.decode_item_key(key)
                decoded.append(token)
            items = decoded
        return items

    def ingest(self, items: list, chunk_id: int, rec: SpanRecorder) -> None:
        """One chunk through both wire paths and the layers behind them."""
        n = len(items)
        with rec.span("ingest", chunk=chunk_id, tokens=n) as root:
            with rec.span("client_encode", root, chunk_id):
                client_chunk = self.client_codec.encode_chunk(items)
            with rec.span("record_encode", root, chunk_id, path="binary"):
                record = encode_chunk_record(client_chunk)
                frame = encode_socket_frame(SOCKET_FRAME_INGEST, record)
            with rec.span("decode", root, chunk_id):
                payload = memoryview(frame)[len(frame) - len(record):]
                binary_chunk = serialization.load_chunk_bytes(
                    parse_chunk_record(payload), self.server_codec
                )
            with rec.span("json_request", root, chunk_id):
                parsed = self._parse_line(self._request_line(items))
            with rec.span("admission", root, chunk_id):
                json_chunk = self.json_codec.encode_chunk(parsed)
            with rec.span("record_encode", root, chunk_id, path="json"):
                json_record = encode_chunk_record(json_chunk)
            chunk, logged = (binary_chunk, record) if self.binary else (json_chunk, json_record)
            with rec.span("wal_append", root, chunk_id, bytes=len(logged)) as append:
                self.wal.append_record(logged, trace=SpanSink(rec, append, chunk_id))
            with rec.span("partition", root, chunk_id):
                partition_chunk(chunk, NUM_SHARDS)
            with rec.span("shard_enqueue", root, chunk_id) as enqueue:
                self.sharded.ingest(chunk, trace=SpanSink(rec, enqueue, chunk_id))
            with rec.span("shard_wait", root, chunk_id):
                self.sharded.flush()
            with rec.span("audit_observe", root, chunk_id):
                self.auditor.observe_chunk(chunk)
        self.tokens += n
        self.frame_bytes += len(frame)


def _traced_snapshots(sharded: ShardedSummarizer, rec: SpanRecorder, samples: int):
    """``SnapshotManager.refresh`` with its copy and merge calls spanned."""
    manager = SnapshotManager(sharded, k=K)
    parent: list[int | None] = [None]
    copy_summaries = sharded.snapshot_summaries
    merge = snapshots_module.merge_summaries

    def traced_copy():
        with rec.span("snapshot_copy", parent[0]):
            return copy_summaries()

    def traced_merge(*args, **kwargs):
        with rec.span("snapshot_merge", parent[0]):
            return merge(*args, **kwargs)

    sharded.snapshot_summaries = traced_copy
    snapshots_module.merge_summaries = traced_merge
    try:
        for _ in range(samples):
            with rec.span("snapshot_refresh") as refresh:
                parent[0] = refresh
                snapshot = manager.refresh(drain=True)
    finally:
        snapshots_module.merge_summaries = merge
        del sharded.snapshot_summaries
    return snapshot


def _backend_ns_per_tok(chunks, records, backend: str, shards: int) -> float:
    """Apply the same chunks on one backend; ns per token, ingest + flush."""
    sharded = ShardedSummarizer(
        lambda: SpaceSaving(NUM_COUNTERS), num_shards=shards, backend=backend
    ).start()
    try:
        started = time.perf_counter()
        for chunk, record in zip(chunks, records):
            sharded.ingest(chunk, record=record)
        sharded.flush()
        elapsed = time.perf_counter() - started
    finally:
        sharded.close()
    return elapsed * 1e9 / sum(len(chunk) for chunk in chunks)


def _e2e_phase(src: Path, work: Path, inputs: Inputs, tally: Tally, seconds: float, notes: list[str]):
    """Untraced run against a real server: ladder baseline, lateness, shutdown."""
    workload = inputs.workload
    oracle = StreamOracle.for_inputs(inputs)
    server = ServerProcess(src, work / "e2e", snapshot_interval=workload.snapshot_interval).launch()
    try:
        with server.client(workload.binary) as client:
            loadgen.warm_up(client, inputs, oracle, tally)
            client.snapshot(drain=True)
            late = closed = IngestPhase()
            series = QuerySeries()
            if workload.open_rate is not None:
                late = IngestPhase()
                session.dashboard_phase(
                    server, client, inputs, oracle, tally, seconds / 2, late, series
                )
                client.snapshot(drain=True)
            loadgen.closed_loop(client, inputs, oracle, tally, seconds / 2, closed)
            final = session.final_checks(client, inputs, oracle, tally)
        shutdown_ms = server.shutdown_ms()
    finally:
        server.kill()
    queries = Verdict()
    for response in series.responses:
        oracle.check(response, queries)
    notes.append(f"untraced closed loop: {closed.tokens} tokens in {closed.seconds:.2f}s")
    late_p90 = loadgen.percentile(late.late_ms, 90)
    return closed.tokens / closed.seconds, late_p90, shutdown_ms, [final, queries]


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    src: Path,
    work: Path,
    output: Path,
    plan: Plan = PLAN,
) -> RunOutcome:
    metrics = Metrics()
    notes: list[str] = []
    tally = Tally()
    metrics.put("host.calibration_ms", session.HostSpeed().median_ms(), "ms")
    inputs = Inputs(workload, seed)
    image = session.build_crash_image(src, work, inputs, plan)
    e2e_tok_s, late_p90, shutdown_ms, verdicts = _e2e_phase(
        src, work, inputs, tally, seconds / 3, notes
    )

    rec = SpanRecorder()
    pipeline = Pipeline(work / "traced-wal", workload)
    try:
        for index, ids in enumerate(inputs.warmup):
            pipeline.ingest(inputs.items(ids), -1 - index, SpanRecorder())
        pipeline.tokens = pipeline.frame_bytes = 0
        vocabulary = len(pipeline.client_codec)
        deadline = time.perf_counter() + seconds / 3
        chunk_id = 0
        while chunk_id < 8 or time.perf_counter() < deadline:
            pipeline.ingest(inputs.pool_items(chunk_id), chunk_id, rec)
            chunk_id += 1
        new_keys = len(pipeline.client_codec) - vocabulary
        with rec.span("wal_fsync", kind="sync"):
            pipeline.wal.sync()
        snapshot = _traced_snapshots(pipeline.sharded, rec, plan.traced_snapshots)
        for key in inputs.point_keys:
            with rec.span("query_execute", op="point"):
                snapshot.estimate(inputs.item(key))
        for _ in range(plan.traced_snapshots):
            with rec.span("query_execute", op="top-k"):
                snapshot.top_k(K)
        backend_chunks = [
            pipeline.client_codec.encode_chunk(inputs.pool_items(i)) for i in range(plan.backend_chunks)
        ]
    finally:
        pipeline.close()
    records = [encode_chunk_record(chunk) for chunk in backend_chunks]
    # The backend rows compare placements across cores: give them every
    # CPU the run may use, then go back to the load generator's share.
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, HOST_CPUS)
    try:
        process2 = _backend_ns_per_tok(backend_chunks, records, "process", 2)
        thread1 = _backend_ns_per_tok(backend_chunks, records, "thread", 1)
    finally:
        os.sched_setaffinity(0, pinned)

    for attempt in range(plan.recoveries):
        copy = work / f"replay-{attempt}"
        shutil.copytree(image, copy)
        with rec.span("recovery_replay", attempt=attempt):
            replayed = recover(copy).tokens_replayed
    rec.write(output / f"spans-{workload.name}-seed{seed}.jsonl")

    tokens = pipeline.tokens
    _put_stage_metrics(metrics, rec, tokens, pipeline.frame_bytes, inputs, chunk_id)
    metrics.put("shard_apply.process2_ns_per_tok", process2, "ns/tok")
    metrics.put("shard_apply.thread1_ns_per_tok", thread1, "ns/tok")
    replay_s = statistics.median([s["end"] - s["start"] for s in rec.named("recovery_replay")])
    metrics.put("recovery_replay.s", replay_s, "s")
    metrics.put("recovery_replay.ns_per_tok", replay_s * 1e9 / replayed, "ns/tok")
    metrics.put("shutdown.ms", shutdown_ms, "ms")
    path = "binary" if workload.binary else "json"
    stage_sum = sum(
        rec.seconds(stage, path=path) if stage == "record_encode" else rec.seconds(stage)
        for stage in LADDER[path]
    ) * 1e9 / tokens
    e2e = 1e9 / e2e_tok_s
    metrics.put("ladder.stage_sum_ns_per_tok", stage_sum, "ns/tok")
    metrics.put("ladder.e2e_ns_per_tok", e2e, "ns/tok")
    metrics.put("ladder.gap_ns_per_tok", e2e - stage_sum, "ns/tok")
    metrics.put("loadgen.late_p90_ms", late_p90, "ms")
    # Keys the client codec had to intern while tracing: the warm-up holds
    # every timed key, so this is 0 unless the codec drops keys it held.
    notes.append(f"client_encode.new_vocab_frac={new_keys / tokens:.6f}")
    notes.append(f"traced {chunk_id} chunks, {tokens} tokens; spans in {output.name}/")
    return RunOutcome(metrics, tally, verdicts, notes)


def _put_stage_metrics(metrics: Metrics, rec: SpanRecorder, tokens: int, frame_bytes: int,
                       inputs: Inputs, chunks: int) -> None:
    def ns(name: str, **match) -> float:
        return rec.seconds(name, **match) * 1e9 / tokens

    def p50_ms(name: str, **match) -> float:
        return statistics.median([(s["end"] - s["start"]) * 1000.0 for s in rec.named(name, **match)])

    traced = [inputs.pool_ids(i) for i in range(chunks)]
    metrics.put("client_encode.ns_per_tok", ns("client_encode"), "ns/tok")
    metrics.put(
        "client_encode.distinct_frac",
        float(np.mean([np.unique(ids).size / ids.size for ids in traced])),
        "fraction",
    )
    metrics.put("record_encode.ns_per_tok", ns("record_encode", path="binary"), "ns/tok")
    metrics.put("record_encode.bytes_per_tok", frame_bytes / tokens, "B/tok")
    metrics.put("json_request.ns_per_tok", ns("json_request"), "ns/tok")
    metrics.put("decode.ns_per_tok", ns("decode"), "ns/tok")
    metrics.put("admission.ns_per_tok", ns("admission"), "ns/tok")
    appends = rec.named("wal_append")
    metrics.put("wal_append.ns_per_tok", ns("wal_append"), "ns/tok")
    metrics.put("wal_append.bytes_per_tok", sum(s["bytes"] for s in appends) / tokens, "B/tok")
    metrics.put("wal_append.count", len(appends), "count")
    metrics.put("wal_append.p50_ms", p50_ms("wal_append"), "ms")
    metrics.put("wal_fsync.ns_per_tok", ns("wal_fsync"), "ns/tok")
    metrics.put("wal_fsync.count", len(rec.named("wal_fsync")), "count")
    metrics.put("wal_fsync.p50_ms", p50_ms("wal_fsync"), "ms")
    metrics.put("partition.ns_per_tok", ns("partition"), "ns/tok")
    metrics.put("shard_enqueue.ns_per_tok", ns("shard_enqueue"), "ns/tok")
    metrics.put("shard_apply.ns_per_tok", ns("shard_apply"), "ns/tok")
    metrics.put("shard_apply.ms", p50_ms("shard_apply"), "ms")
    metrics.put("shard_wait.ns_per_tok", ns("shard_wait"), "ns/tok")
    metrics.put("shard_wait.ms", p50_ms("shard_wait"), "ms")
    metrics.put("audit_observe.ns_per_tok", ns("audit_observe"), "ns/tok")
    metrics.put("snapshot_copy.ms", p50_ms("snapshot_copy"), "ms")
    metrics.put("snapshot_merge.ms", p50_ms("snapshot_merge"), "ms")
    refreshes = rec.named("snapshot_refresh")
    metrics.put("snapshot_refresh.ms", p50_ms("snapshot_refresh"), "ms")
    children: dict[int, float] = {}
    for span in rec.named("snapshot_copy") + rec.named("snapshot_merge"):
        children[span["parent"]] = children.get(span["parent"], 0.0) + span["end"] - span["start"]
    metrics.put(
        "snapshot_refresh.self_ms",
        statistics.median([(s["end"] - s["start"] - children.get(s["id"], 0.0)) * 1000.0 for s in refreshes]),
        "ms",
    )
    metrics.put("query_execute.point_us", p50_ms("query_execute", op="point") * 1000.0, "us")
    metrics.put("query_execute.topk_us", p50_ms("query_execute", op="top-k") * 1000.0, "us")
