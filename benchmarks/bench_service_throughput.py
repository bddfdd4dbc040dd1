"""Service-layer benchmark: sharded concurrent ingest vs direct ingestion.

Measures what the service subsystem adds on top of the PR-1 batched fast
path: a ``ShardedSummarizer`` partitions each chunk by item hash and
applies the per-shard batches inline on the calling thread (thread
backend), while the baseline feeds the same chunks into a single summary
on the calling thread.  Sharding on threads buys no CPU scaling -- the
benchmark exists to keep the partitioning overhead visible per PR,
alongside the snapshot (shard copies and their union) latency that
queries pay.

The sharded rows are *columnar*: the shard layer takes encoded chunks
only, so chunks are interned through a shared (pre-warmed)
:class:`repro.engine.codec.TokenCodec` into encoded id columns, shard
fan-out is one vectorised ``partition_chunk`` call per chunk, and each
shard applies its encoded sub-chunk inline.  The direct baseline runs
both plain and columnar.

The benchmark also times the *socket* ingest path over a real TCP
connection, one row per wire encoding: ``socket-json`` (NDJSON request
lines) and ``socket-binary`` (protocol-4 length-prefixed frames carrying
the WAL's CRC-framed packed chunk record, appended verbatim
server-side); after decoding, both feed the same server ingest path.
Both rows use string tokens -- integer streams ride vectorised fast paths
that mask the JSON parse cost the binary frame exists to remove -- and
``wire-columnar`` times the same string stream through the in-process
sharded columnar path as the ceiling the socket rows are gated against.

Two entry points, mirroring ``bench_update_throughput``:

* under pytest (with pytest-benchmark) every shard count is a benchmark
  case;
* standalone, ``python benchmarks/bench_service_throughput.py --quick
  --output bench-service.json`` emits a JSON artifact with no dependencies
  beyond the library -- the CI smoke job uploads this next to the update
  throughput artifact.  ``--check`` re-reads an emitted artifact and
  fails when binary framing stops paying for itself (see
  :func:`check_artifact`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

try:
    import pytest
except ImportError:  # standalone quick mode in a minimal environment
    pytest = None

from repro.algorithms.space_saving import SpaceSaving
from repro.engine.codec import TokenCodec
from repro.service.client import ServiceClient
from repro.service.server import HeavyHittersService, ServiceConfig, serve
from repro.service.sharding import ShardedSummarizer
from repro.service.snapshots import SnapshotManager
from repro.streams.batched import iter_chunks
from repro.streams.generators import zipf_stream

#: Tokens per ingest chunk (the unit a producer hands to the service).
CHUNK_SIZE = 8_192
#: Tokens per chunk on the wire rows: the bulk-transfer shape the binary
#: frame exists for, where per-request costs (round-trip, frame, response)
#: amortise over more tokens.  Applied to all three wire rows so the
#: --check ratios compare encodings, not chunk sizes.
WIRE_CHUNK_SIZE = 16_384

NUM_COUNTERS = 1_000
SHARD_COUNTS = (1, 2, 4)
#: Shard count of the socket-path rows (and their in-process reference).
SOCKET_SHARDS = 2

#: ``--check`` floors: binary frames must beat NDJSON by this factor...
MIN_BINARY_SPEEDUP = 2.0
#: ...and stay within this factor of the in-process columnar ceiling.
#: The design target is ~2x (the socket may cost syscalls and framing,
#: not another serialisation pass); the extra headroom absorbs shared-CI
#: runner noise, which moves the columnar numerator by +-15% run to run.
MAX_COLUMNAR_GAP = 2.5
#: ``--check`` floor for the process backend at 4 shards: separate
#: interpreters must actually beat the GIL.  Only enforced when the
#: artifact's row was recorded on a host with at least 4 cores -- on a
#: single-core box the process backend pays IPC for no parallelism and
#: the row is informational.
MIN_PROCESS_SPEEDUP = 1.8

STREAM = zipf_stream(num_items=10_000, alpha=1.1, total=50_000, seed=79)


def _make_estimator():
    return SpaceSaving(num_counters=NUM_COUNTERS)


def _flow_of(index: int):
    """Deterministic 5-tuple flow key -- the service's target token shape.

    Structured tokens are where the wire encodings diverge: NDJSON must
    tag-encode every occurrence, a binary frame carries each distinct
    token once in its chunk vocabulary.
    """
    return (
        f"10.0.{(index >> 8) & 255}.{index & 255}",
        f"192.168.0.{index % 32}",
        1024 + index % 500,
        443,
        "tcp" if index % 3 else "udp",
    )


def _warm_codec(items) -> TokenCodec:
    """A codec whose vocabulary already covers the stream (steady state)."""
    codec = TokenCodec()
    for chunk in iter_chunks(items, CHUNK_SIZE):
        codec.encode_chunk(chunk)
    return codec


def _run_direct(items, codec: Optional[TokenCodec] = None) -> float:
    """Baseline: batched ingestion into one summary on the calling thread."""
    summary = _make_estimator()
    start = time.perf_counter()
    for chunk in iter_chunks(items, CHUNK_SIZE):
        if codec is not None:
            summary.update_batch(codec.encode_chunk(chunk))
        else:
            summary.update_batch(chunk)
    return time.perf_counter() - start


def _run_sharded(
    items,
    num_shards: int,
    codec: TokenCodec,
    snapshot: bool = False,
    chunk_size: int = CHUNK_SIZE,
    backend: str = "thread",
) -> dict:
    """Sharded ingest of the same chunks; optionally time a snapshot too."""
    with ShardedSummarizer(
        _make_estimator, num_shards=num_shards, backend=backend
    ) as sharded:
        start = time.perf_counter()
        for chunk in iter_chunks(items, chunk_size):
            sharded.ingest(codec.encode_chunk(chunk))
        sharded.flush()
        ingest_seconds = time.perf_counter() - start
        snapshot_seconds = None
        if snapshot:
            manager = SnapshotManager(sharded, k=10)
            start = time.perf_counter()
            manager.refresh()
            snapshot_seconds = time.perf_counter() - start
    return {"ingest_seconds": ingest_seconds, "snapshot_seconds": snapshot_seconds}


def _run_admission(items) -> float:
    """Time the server's NDJSON ingest path, admission included.

    Drives the real ``handle()`` path, whose codec admits each token once
    per new vocabulary entry before the chunk reaches WAL and shards.
    """
    config = ServiceConfig(num_counters=NUM_COUNTERS, num_shards=2, k=10)
    with HeavyHittersService(config) as service:
        start = time.perf_counter()
        for chunk in iter_chunks(items, CHUNK_SIZE):
            response = service.handle({"op": "ingest", "items": chunk})
            assert response["ok"], response
        service.sharded.flush()
        return time.perf_counter() - start


def _run_socket(items, binary: bool, codec: Optional[TokenCodec] = None) -> float:
    """Time the full client->TCP->server ingest path for one encoding.

    ``binary=True`` drives protocol-4 frames through ``ingest_chunk`` with a
    pre-warmed producer codec (the steady state of a ``BatchedIngestor``
    pipeline); ``binary=False`` pins the connection to NDJSON request
    lines.  Metrics, tracing and auditing are off so both rows measure
    the bare wire path, mirroring the uninstrumented in-process rows, and
    an untimed warm pass first saturates the server-side codec and wire
    memos -- the steady state the in-process columnar rows report via
    their pre-warmed codec.
    """
    config = ServiceConfig(
        num_counters=NUM_COUNTERS,
        num_shards=SOCKET_SHARDS,
        k=10,
        metrics=False,
        tracing=False,
        audit_rate=0.0,
    )
    server = serve(config, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        mode = "always" if binary else "never"
        with ServiceClient(port=server.port, binary=mode) as client:

            def one_pass() -> float:
                start = time.perf_counter()
                for chunk in iter_chunks(items, WIRE_CHUNK_SIZE):
                    if binary:
                        client.ingest_chunk(codec.encode_chunk(chunk))
                    else:
                        client.ingest(chunk)
                server.service.sharded.flush()
                return time.perf_counter() - start

            one_pass()  # warm: server codec, decode/wire-key memos
            # Best of three timed passes: the wire rows feed tight --check
            # ratios, and one pass on a shared runner is too noisy even in
            # --quick mode (each pass is well under a second).
            return min(one_pass() for _ in range(3))
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)


if pytest is not None:

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_sharded_ingest_throughput(benchmark, num_shards):
        result = benchmark.pedantic(
            _run_sharded,
            args=(STREAM.items, num_shards, _warm_codec(STREAM.items)),
            iterations=1,
            rounds=3,
        )
        assert result["ingest_seconds"] > 0

    @pytest.mark.parametrize("columnar", (False, True))
    def test_direct_ingest_throughput(benchmark, columnar):
        codec = _warm_codec(STREAM.items) if columnar else None
        seconds = benchmark.pedantic(
            _run_direct, args=(STREAM.items, codec), iterations=1, rounds=3
        )
        assert seconds > 0


# --------------------------------------------------------------------------- #
# Standalone quick mode (used by the CI benchmark-smoke job)
# --------------------------------------------------------------------------- #


def run_comparison(rounds: int = 3, total: int = 50_000) -> List[dict]:
    """One row per configuration (direct plain and columnar, then each
    shard count columnar), best of rounds.  Columnar rows share one
    pre-warmed codec so they report the saturated-vocabulary steady
    state."""
    stream = (
        STREAM
        if total == 50_000
        else zipf_stream(10_000, alpha=1.1, total=total, seed=79)
    )
    items = stream.items
    codec = _warm_codec(items)
    rows = []

    for columnar in (False, True):
        suffix = "-columnar" if columnar else ""
        run_codec = codec if columnar else None
        direct_best = min(
            _run_direct(items, run_codec) for _ in range(max(1, rounds))
        )
        rows.append(
            {
                "config": f"direct{suffix}",
                "shards": 0,
                "columnar": columnar,
                "tokens": len(items),
                "chunk_size": CHUNK_SIZE,
                "ingest_seconds": direct_best,
                "tokens_per_second": len(items) / direct_best,
                "snapshot_seconds": None,
            }
        )

    for num_shards in SHARD_COUNTS:
        best = None
        for _ in range(max(1, rounds)):
            result = _run_sharded(items, num_shards, codec, snapshot=True)
            if best is None or result["ingest_seconds"] < best["ingest_seconds"]:
                best = result
        rows.append(
            {
                "config": f"sharded-{num_shards}-columnar",
                "shards": num_shards,
                "columnar": True,
                "tokens": len(items),
                "chunk_size": CHUNK_SIZE,
                "ingest_seconds": best["ingest_seconds"],
                "tokens_per_second": len(items) / best["ingest_seconds"],
                "snapshot_seconds": best["snapshot_seconds"],
            }
        )

    # Thread-vs-process backend rows: the same columnar chunks, with the
    # shard workers in separate interpreters fed framed chunk records over
    # pipes.  Each row records the host core count: on a single-core box
    # the process backend pays pipe IPC for no parallelism, so --check
    # only enforces MIN_PROCESS_SPEEDUP when the row says cores >= 4.
    cores = os.cpu_count() or 1
    for num_shards in SHARD_COUNTS:
        best_seconds = min(
            _run_sharded(items, num_shards, codec, backend="process")[
                "ingest_seconds"
            ]
            for _ in range(max(1, rounds))
        )
        rows.append(
            {
                "config": f"sharded-{num_shards}-process",
                "shards": num_shards,
                "columnar": True,
                "backend": "process",
                "cores": cores,
                "tokens": len(items),
                "chunk_size": CHUNK_SIZE,
                "ingest_seconds": best_seconds,
                "tokens_per_second": len(items) / best_seconds,
                "snapshot_seconds": None,
            }
        )

    # The server's NDJSON ingest path, with the codec's amortised
    # admission.
    best_seconds = min(_run_admission(items) for _ in range(max(1, rounds)))
    rows.append(
        {
            "config": "service-admission-codec",
            "shards": 2,
            "columnar": True,
            "tokens": len(items),
            "chunk_size": CHUNK_SIZE,
            "ingest_seconds": best_seconds,
            "tokens_per_second": len(items) / best_seconds,
            "snapshot_seconds": None,
        }
    )

    # Wire-path rows: structured flow-tuple tokens (integer streams ride
    # vectorised fast paths, and plain strings cross NDJSON untagged --
    # either would mask the per-occurrence encoding cost the binary frame
    # removes), one row per encoding, plus the in-process columnar ceiling
    # over the same stream that --check gates against.
    wire_items = [_flow_of(int(value)) for value in items]
    wire_codec = _warm_codec(wire_items)
    columnar_best = min(
        _run_sharded(
            wire_items, SOCKET_SHARDS, wire_codec, chunk_size=WIRE_CHUNK_SIZE
        )["ingest_seconds"]
        for _ in range(max(3, rounds))
    )
    rows.append(
        {
            "config": "wire-columnar",
            "shards": SOCKET_SHARDS,
            "columnar": True,
            "tokens": len(wire_items),
            "chunk_size": WIRE_CHUNK_SIZE,
            "ingest_seconds": columnar_best,
            "tokens_per_second": len(wire_items) / columnar_best,
            "snapshot_seconds": None,
        }
    )
    for binary in (False, True):
        socket_best = min(
            _run_socket(wire_items, binary, wire_codec)
            for _ in range(max(1, rounds))
        )
        rows.append(
            {
                "config": "socket-binary" if binary else "socket-json",
                "shards": SOCKET_SHARDS,
                "columnar": binary,
                "tokens": len(wire_items),
                "chunk_size": WIRE_CHUNK_SIZE,
                "ingest_seconds": socket_best,
                "tokens_per_second": len(wire_items) / socket_best,
                "snapshot_seconds": None,
            }
        )
    return rows


def check_artifact(path: str) -> int:
    """The CI regression gate over an emitted JSON artifact.

    Two invariants of the v3 binary wire path:

    * ``socket-binary`` ingests at least ``MIN_BINARY_SPEEDUP`` times
      faster than ``socket-json`` -- framing must keep paying for the
      protocol complexity it added;
    * ``socket-binary`` stays within ``MAX_COLUMNAR_GAP`` of
      ``wire-columnar`` -- the socket may cost syscalls and framing, but
      not another serialisation pass (the zero-copy claim, as a number);
    * when the artifact carries process-backend rows recorded on a host
      with at least 4 cores, ``sharded-4-process`` must beat
      ``sharded-4-columnar`` (the thread backend) by
      ``MIN_PROCESS_SPEEDUP`` -- the GIL-escape claim, as a number.  On
      smaller hosts the ratio is printed but not enforced.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = {row["config"]: row for row in payload["results"]}
    try:
        socket_json = rows["socket-json"]["tokens_per_second"]
        socket_binary = rows["socket-binary"]["tokens_per_second"]
        columnar = rows["wire-columnar"]["tokens_per_second"]
    except KeyError as error:
        print(f"artifact {path} is missing row {error}", file=sys.stderr)
        return 1
    speedup = socket_binary / socket_json
    gap = columnar / socket_binary
    print(
        f"binary vs NDJSON socket ingest: {speedup:.2f}x "
        f"({socket_binary:,.0f} vs {socket_json:,.0f} tok/s; floor "
        f"{MIN_BINARY_SPEEDUP:.1f}x)"
    )
    print(
        f"in-process columnar vs binary socket: {gap:.2f}x "
        f"({columnar:,.0f} vs {socket_binary:,.0f} tok/s; ceiling "
        f"{MAX_COLUMNAR_GAP:.1f}x)"
    )
    failed = False
    if speedup < MIN_BINARY_SPEEDUP:
        print(
            f"REGRESSION: binary socket ingest fell below "
            f"{MIN_BINARY_SPEEDUP:.1f}x of NDJSON socket throughput",
            file=sys.stderr,
        )
        failed = True
    if gap > MAX_COLUMNAR_GAP:
        print(
            f"REGRESSION: binary socket ingest fell more than "
            f"{MAX_COLUMNAR_GAP:.1f}x behind in-process columnar ingest",
            file=sys.stderr,
        )
        failed = True
    process_row = rows.get("sharded-4-process")
    thread_row = rows.get("sharded-4-columnar")
    if process_row is not None and thread_row is not None:
        row_cores = int(process_row.get("cores") or 0)
        ratio = (
            process_row["tokens_per_second"] / thread_row["tokens_per_second"]
        )
        print(
            f"process vs thread backend at 4 shards: {ratio:.2f}x "
            f"({process_row['tokens_per_second']:,.0f} vs "
            f"{thread_row['tokens_per_second']:,.0f} tok/s on "
            f"{row_cores} core(s); floor {MIN_PROCESS_SPEEDUP:.1f}x "
            f"when cores >= 4)"
        )
        if row_cores >= 4 and ratio < MIN_PROCESS_SPEEDUP:
            print(
                f"REGRESSION: process backend fell below "
                f"{MIN_PROCESS_SPEEDUP:.1f}x of thread-backend throughput "
                f"at 4 shards on a {row_cores}-core host",
                file=sys.stderr,
            )
            failed = True
        elif row_cores < 4:
            print(
                "  (speedup floor not enforced: row recorded on a host "
                "with fewer than 4 cores)"
            )
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded-service ingest throughput benchmark."
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timing rounds per case (best is kept)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="single round (CI smoke mode)"
    )
    parser.add_argument(
        "--length", type=int, default=50_000, help="Zipf stream length to time against"
    )
    parser.add_argument("--output", default=None, help="write results as JSON here")
    parser.add_argument(
        "--check",
        default=None,
        metavar="ARTIFACT",
        help="read a previously emitted JSON artifact and fail if binary "
        "socket ingest lost its edge over NDJSON or fell too far behind "
        "in-process columnar ingest",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        return check_artifact(args.check)

    rounds = 1 if args.quick else args.rounds
    rows = run_comparison(rounds=rounds, total=args.length)

    header = f"{'config':<20} {'tok/s':>12} {'snapshot ms':>12}"
    print(header)
    print("-" * len(header))
    for row in rows:
        snapshot = (
            "-"
            if row["snapshot_seconds"] is None
            else f"{row['snapshot_seconds'] * 1e3:,.1f}"
        )
        print(f"{row['config']:<20} {row['tokens_per_second']:>12,.0f} {snapshot:>12}")

    if args.output:
        payload = {
            "benchmark": "service_throughput",
            "rounds": rounds,
            "results": rows,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
