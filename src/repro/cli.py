"""Command-line interface for the heavy-hitters library.

Installed as the ``repro`` console script.  Subcommands:

``generate``
    Write a synthetic workload (Zipf / uniform / trace / query-log) to a
    text file, one item per line (optionally ``item,weight`` pairs).
``heavy-hitters``
    Stream a workload file through a counter algorithm and print the items
    above a frequency threshold with their certified intervals.
``top-k``
    Print the top-k items of a workload file.
``summarize``
    Build a summary of a workload file and write it as JSON (the wire format
    from :mod:`repro.serialization`) -- the per-site half of Section 6.2.
``merge``
    Merge several summary JSON files into one and print its top items --
    the coordinator half of Section 6.2.  Snapshot and recovery files (the
    union of a service's shards) merge as their shard summaries.
``experiments``
    Run the reproduction experiment suite and print every table.
``serve``
    Run the long-running heavy-hitters service: sharded concurrent ingest,
    owner-shard snapshots, optional sliding windows, and (with ``--wal-dir``) a
    write-ahead log that makes acked ingest survive crashes
    (:mod:`repro.service`).
``query``
    Talk to a running service over its newline-delimited JSON socket
    protocol: push tokens, force snapshots and WAL checkpoints, ask point /
    top-k / heavy-hitter / windowed queries.
``recover``
    Rebuild service state from a write-ahead log directory after a crash:
    load the latest checkpoint, replay newer segments, report and
    optionally persist the union of the recovered shards
    (:mod:`repro.service.recovery`).
``lint``
    Run the repo-specific concurrency lint engine over the source tree:
    lock discipline, critical-section hygiene, and exception boundaries
    (:mod:`repro.analysis`).

Every subcommand works on plain text files so the tool composes with standard
UNIX tooling (``cut``, ``zcat``, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple

from repro import serialization
from repro.analysis import cli as analysis_cli
from repro.algorithms.base import FrequencyEstimator
from repro.algorithms.frequent import Frequent
from repro.algorithms.frequent_real import FrequentR
from repro.algorithms.space_saving import SpaceSaving
from repro.algorithms.space_saving_real import SpaceSavingR
from repro.core.heavy_hitters import HeavyHitters
from repro.core.merging import DisjointUnion, merge_summaries
from repro.streams import batched
from repro.streams.generators import uniform_stream, zipf_stream
from repro.streams.trace import QueryLogGenerator, SyntheticTraceGenerator

_UNIT_ALGORITHMS: dict[str, Callable[[int], FrequencyEstimator]] = {
    "spacesaving": lambda m: SpaceSaving(num_counters=m),
    "frequent": lambda m: Frequent(num_counters=m),
}

_WEIGHTED_ALGORITHMS: dict[str, Callable[[int], FrequencyEstimator]] = {
    "spacesaving": lambda m: SpaceSavingR(num_counters=m),
    "frequent": lambda m: FrequentR(num_counters=m),
}


# --------------------------------------------------------------------------- #
# Workload I/O
# --------------------------------------------------------------------------- #


def _read_tokens(path: Path, weighted: bool) -> Iterable[Tuple[str, float]]:
    """Yield (item, weight) pairs from a workload file.

    Lines are either a bare item (weight 1) or ``item,weight``.  Blank lines
    and lines starting with ``#`` are skipped.
    """
    try:
        yield from batched.read_workload(path, weighted)
    except ValueError as error:
        raise SystemExit(str(error)) from error


def _feed_file(
    summary: FrequencyEstimator, path: Path, weighted: bool, batch_size: int = 0
) -> FrequencyEstimator:
    """Stream a workload file into ``summary``.

    ``batch_size > 0`` selects the batched fast path (``batch_size`` tokens
    aggregated per ``update_batch`` call); 0 keeps one update per token.
    """
    if batch_size > 0:
        try:
            return batched.ingest_file(summary, path, weighted, batch_size)
        except ValueError as error:
            raise SystemExit(str(error)) from error
    for item, weight in _read_tokens(path, weighted):
        summary.update(item, weight)
    return summary


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.workload == "zipf":
        stream = zipf_stream(
            num_items=args.items, alpha=args.alpha, total=args.length, seed=args.seed
        )
        lines = [str(item) for item in stream.items]
    elif args.workload == "uniform":
        stream = uniform_stream(num_items=args.items, total=args.length, seed=args.seed)
        lines = [str(item) for item in stream.items]
    elif args.workload == "trace":
        generator = SyntheticTraceGenerator(
            num_flows=args.items, alpha=args.alpha, seed=args.seed
        )
        byte_stream = generator.byte_stream(args.length)
        lines = [f"{flow},{size:.0f}" for flow, size in byte_stream.pairs]
    else:  # query-log
        generator = QueryLogGenerator(
            vocabulary_size=args.items, alpha=args.alpha, seed=args.seed
        )
        lines = list(generator.query_stream(args.length).items)
    output = Path(args.output)
    output.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines):,} tokens to {output}")
    return 0


def _build_summary(args: argparse.Namespace) -> FrequencyEstimator:
    registry = _WEIGHTED_ALGORITHMS if args.weighted else _UNIT_ALGORITHMS
    factory = registry[args.algorithm]
    summary = factory(args.counters)
    return _feed_file(summary, Path(args.input), args.weighted, args.batch_size)


def _cmd_heavy_hitters(args: argparse.Namespace) -> int:
    try:
        hh = HeavyHitters(
            phi=args.phi, epsilon=args.epsilon or args.phi / 2, algorithm=args.algorithm
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error
    if args.batch_size > 0:
        tokens = _read_tokens(Path(args.input), args.weighted)
        if args.weighted:
            for chunk in batched.iter_chunks(tokens, args.batch_size):
                hh.update_batch(
                    [item for item, _ in chunk], [weight for _, weight in chunk]
                )
        else:
            # Unit weights: drop them so update_batch takes the fast
            # Counter-based aggregation path.
            items = (item for item, _ in tokens)
            for chunk in batched.iter_chunks(items, args.batch_size):
                hh.update_batch(chunk)
    else:
        for item, weight in _read_tokens(Path(args.input), args.weighted):
            hh.update(item, weight)
    reports = hh.report()
    print(f"stream weight: {hh.stream_length:,.0f}")
    print(f"threshold    : {args.phi * hh.stream_length:,.1f} ({args.phi:.2%})")
    print(f"{'status':<11} {'item':<24} {'estimate':>12} {'low':>12} {'high':>12}")
    for report in reports:
        status = "guaranteed" if report.guaranteed else "possible"
        print(
            f"{status:<11} {str(report.item):<24} {report.estimate:>12.1f} "
            f"{report.lower:>12.1f} {report.upper:>12.1f}"
        )
    if not reports:
        print("(no items above the threshold)")
    return 0


def _require_non_negative(flag: str, value: int) -> None:
    if value < 0:
        raise SystemExit(f"{flag} must be >= 0, got {value}")


def _cmd_top_k(args: argparse.Namespace) -> int:
    _require_non_negative("--k", args.k)
    summary = _build_summary(args)
    print(f"{'rank':>4} {'item':<24} {'estimate':>12}")
    for rank, (item, estimate) in enumerate(summary.top_k(args.k), start=1):
        print(f"{rank:>4} {str(item):<24} {estimate:>12.1f}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    summary = _build_summary(args)
    payload = serialization.dump(summary)
    text = json.dumps(payload, sort_keys=True, indent=None)
    Path(args.output).write_text(text, encoding="utf-8")
    words = serialization.serialized_size_words(payload)
    print(
        f"summarised {summary.stream_length:,.0f} units into {len(summary)} counters "
        f"({words} words on the wire) -> {args.output}"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise SystemExit(f"--k must be >= 1, got {args.k}")
    summaries = []
    for path in args.summaries:
        summary = serialization.load_bytes(Path(path).read_bytes())
        # A snapshot or recovery file is a union of shards: merge its parts.
        summaries.extend(summary.parts if isinstance(summary, DisjointUnion) else [summary])
    budgets = {summary.num_counters for summary in summaries}
    classes = {type(summary) for summary in summaries}
    if len(classes) > 1:
        raise SystemExit("all summaries must come from the same algorithm")
    if len(budgets) > 1:
        raise SystemExit("all summaries must use the same counter budget")
    cls = classes.pop()
    budget = budgets.pop()
    merged = merge_summaries(
        summaries,
        k=args.k,
        make_estimator=lambda: cls(num_counters=budget),
    )
    constants = merged.merged_constants
    print(
        f"merged {len(summaries)} summaries "
        f"(guarantee constants A={constants.a:.0f}, B={constants.b:.0f})"
    )
    print(f"{'rank':>4} {'item':<24} {'estimate':>12}")
    for rank, (item, estimate) in enumerate(merged.estimator.top_k(args.k), start=1):
        print(f"{rank:>4} {str(item):<24} {estimate:>12.1f}")
    if args.output:
        Path(args.output).write_text(
            serialization.dumps(merged.estimator), encoding="utf-8"
        )
        print(f"wrote merged summary to {args.output}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import runner

    return runner.main(["--quick"] if args.quick else [])


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import RecoveryError, ServiceConfig, WalError, serve
    from repro.service.http import serve_http
    from repro.service.logging import configure_logging
    from repro.service.recovery import resume_service

    configure_logging(log_format=args.log_format, level=args.log_level)
    config = ServiceConfig(
        num_counters=args.counters,
        num_shards=args.shards,
        k=args.k,
        window_buckets=args.window_buckets,
        snapshot_interval=args.snapshot_interval,
        snapshot_dir=args.snapshot_dir,
        compress=args.compress,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        wal_segment_bytes=args.wal_segment_bytes,
        checkpoint_interval=args.checkpoint_interval,
        metrics=not args.no_metrics,
        tracing=not args.no_tracing,
        trace_sample_rate=args.trace_sample_rate,
        slow_request_seconds=args.slow_request_seconds,
        audit_rate=args.audit_rate,
    )
    # The HTTP plane comes up *before* recovery replay: an orchestrator
    # then sees liveness (200 /healthz) with readiness 503 "recovering"
    # for however long the WAL replay takes, instead of a dead port.
    http_server = None
    if args.http_port is not None:
        http_server = serve_http(host=args.host, port=args.http_port)
        print(
            f"operations HTTP plane on {args.host}:{http_server.port} "
            "(/healthz /readyz /metrics /v1/...)",
            flush=True,
        )
    service = None
    if args.wal_dir is not None:
        # A WAL directory with prior state means a previous process died:
        # recover (checkpoint + replay) before accepting new traffic, so
        # every acked token survives the restart.
        try:
            service, recovered = resume_service(config)
        except (RecoveryError, WalError, serialization.SerializationError) as error:
            raise SystemExit(f"cannot recover WAL at {args.wal_dir}: {error}") from error
        if recovered is not None:
            print(
                f"recovered {recovered.tokens_replayed:,} tokens from "
                f"{recovered.scan.segments_scanned} WAL segment(s) on top of "
                f"checkpoint v{recovered.checkpoint_version} "
                f"(stream weight {recovered.stream_length:,.0f}"
                + (
                    f", truncated torn tail of {recovered.scan.truncated_bytes} bytes)"
                    if recovered.scan.torn_tail
                    else ")"
                ),
                flush=True,
            )
    try:
        server = serve(config, host=args.host, port=args.port, service=service)
    except BaseException:
        if http_server is not None:
            http_server.close()
        raise
    if http_server is not None:
        http_server.attach(server.service)
    host, port = server.server_address[:2]
    wal_note = f", wal={args.wal_dir} fsync={args.fsync}" if args.wal_dir else ""
    print(
        f"serving ArraySummary shards (m={args.counters}, shards={args.shards}, "
        f"k={args.k}{wal_note}) on {host}:{port}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if http_server is not None:
            http_server.close()
        server.server_close()
        server.service.close()
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.service import RecoveryError, WalError
    from repro.service.recovery import compact, recover

    _require_non_negative("--top-k", args.top_k)
    try:
        result = recover(args.wal_dir, k=args.k)
    except (RecoveryError, WalError, serialization.SerializationError) as error:
        raise SystemExit(f"recovery failed: {error}") from error
    scan = result.scan
    torn = (
        f"; truncated torn tail of {scan.truncated_bytes} bytes"
        if scan.torn_tail
        else ""
    )
    print(
        f"recovered {result.tokens_replayed:,} tokens in {result.chunks_replayed} "
        f"chunks from {scan.segments_scanned} segment(s) on top of checkpoint "
        f"v{result.checkpoint_version} across {result.num_shards} shard(s){torn}"
    )
    merge = result.merge
    print(
        f"stream weight: {result.stream_length:,.0f}"
        f"  (owner-shard guarantee A={merge.merged_constants.a:.0f}, "
        f"B={merge.merged_constants.b:.0f}, k={merge.k})"
    )
    print(f"{'rank':>4} {'item':<24} {'estimate':>12}")
    for rank, (item, estimate) in enumerate(
        result.estimator.top_k(args.top_k), start=1
    ):
        print(f"{rank:>4} {str(item):<24} {estimate:>12.1f}")
    if args.output:
        Path(args.output).write_text(
            serialization.dumps(result.estimator), encoding="utf-8"
        )
        print(f"wrote the union of {result.num_shards} shard(s) to {args.output}")
    if args.compact:
        path = compact(args.wal_dir, result)
        print(f"compacted WAL into {path.name}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    scheme = "http" if args.http else "tcp"

    def require(value, flag: str):
        if value is None:
            raise SystemExit(f"action {args.action!r} requires {flag}")
        return value

    def query_item():
        """The --item value, decoding the v2 tagged key form when asked.

        ``--tagged`` lets the shell address structured tokens -- e.g. a
        flow 5-tuple as ``--tagged --item 't:["s:10.0.0.1","i:443"]'``.
        """
        item = require(args.item, "--item")
        if not args.tagged:
            return item
        try:
            return serialization.decode_item_key(item)
        except serialization.SerializationError as error:
            raise SystemExit(f"invalid --item key: {error}") from error

    binary = "always" if args.binary else "auto"
    if args.binary and args.http:
        raise SystemExit("--binary needs the TCP transport; drop --http")
    try:
        with ServiceClient.from_url(
            f"{scheme}://{args.host}:{args.port}", binary=binary
        ) as client:
            if args.action == "ingest":
                path = Path(require(args.input, "--input"))
                pushed = 0
                tokens = _read_tokens(path, args.weighted)
                for chunk in batched.iter_chunks(tokens, args.batch_size):
                    items = [item for item, _ in chunk]
                    weights = (
                        [weight for _, weight in chunk] if args.weighted else None
                    )
                    pushed += client.ingest(items, weights)
                response = {"ok": True, "ingested": pushed}
            elif args.action == "ping":
                response = client.call({"op": "ping"})
            elif args.action == "stats":
                response = client.stats()
            elif args.action == "snapshot":
                response = client.snapshot()
            elif args.action == "checkpoint":
                response = client.checkpoint()
            elif args.action == "advance-window":
                response = {"ok": True, "bucket": client.advance_window(args.steps)}
            elif args.action == "shutdown":
                client.shutdown()
                response = {"ok": True, "stopping": True}
            elif args.action == "point":
                response = client.point(query_item())
            elif args.action == "top-k":
                response = client.call({"op": "query", "type": "top-k", "k": args.k})
            elif args.action == "heavy-hitters":
                response = client.call(
                    {"op": "query", "type": "heavy-hitters", "phi": args.phi}
                )
            elif args.action == "window-point":
                response = client.window_point(query_item(), window=args.window)
            elif args.action == "window-top-k":
                request = {"op": "query", "type": "window-top-k", "k": args.k}
                if args.window is not None:
                    request["window"] = args.window
                response = client.call(request)
            else:  # window-heavy-hitters
                request = {
                    "op": "query",
                    "type": "window-heavy-hitters",
                    "phi": args.phi,
                }
                if args.window is not None:
                    request["window"] = args.window
                response = client.call(request)
    except ServiceError as error:
        raise SystemExit(f"service error: {error}") from error
    except OSError as error:
        raise SystemExit(
            f"cannot reach service at {args.host}:{args.port}: {error}"
        ) from error
    # Structured tokens decoded from tagged responses (tuples print as
    # arrays natively; bytes and other non-JSON values fall back to repr).
    for key in ("top_k", "heavy_hitters"):
        entries = response.get(key)
        if isinstance(entries, list):
            for entry in entries:
                if isinstance(entry, dict) and entry.pop("item_tagged", False):
                    entry["item"] = serialization.decode_item_key(entry["item"])
    print(json.dumps(response, indent=2, sort_keys=True, default=repr))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return analysis_cli.run(args)


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heavy hitters with strong (residual) error bounds -- PODS 2009 reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="write a synthetic workload file")
    generate.add_argument("output", help="path of the workload file to write")
    generate.add_argument(
        "--workload",
        choices=("zipf", "uniform", "trace", "query-log"),
        default="zipf",
    )
    generate.add_argument("--items", type=int, default=10_000, help="domain size")
    generate.add_argument("--length", type=int, default=100_000, help="stream length")
    generate.add_argument("--alpha", type=float, default=1.2, help="Zipf skew")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    def add_summary_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("input", help="workload file (one item, or item,weight, per line)")
        sub.add_argument(
            "--algorithm", choices=sorted(_UNIT_ALGORITHMS), default="spacesaving"
        )
        sub.add_argument("--counters", type=int, default=1_000, help="counter budget m")
        sub.add_argument(
            "--weighted",
            action="store_true",
            help="treat lines as item,weight pairs (Section 6.1 algorithms)",
        )
        sub.add_argument(
            "--batch-size",
            type=int,
            default=0,
            help="ingest in aggregated chunks of this many tokens "
            "(0 = one update per token)",
        )

    hh = subparsers.add_parser(
        "heavy-hitters", help="report items above a frequency threshold"
    )
    hh.add_argument("input", help="workload file")
    hh.add_argument("--phi", type=float, default=0.01, help="report threshold fraction")
    hh.add_argument(
        "--epsilon", type=float, default=None, help="uncertainty slack (default phi/2)"
    )
    hh.add_argument(
        "--algorithm", choices=sorted(_UNIT_ALGORITHMS), default="spacesaving"
    )
    hh.add_argument("--weighted", action="store_true")
    hh.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="ingest in aggregated chunks of this many tokens (0 = one update per token)",
    )
    hh.set_defaults(func=_cmd_heavy_hitters)

    top_k = subparsers.add_parser("top-k", help="print the k most frequent items")
    add_summary_arguments(top_k)
    top_k.add_argument("--k", type=int, default=10)
    top_k.set_defaults(func=_cmd_top_k)

    summarize = subparsers.add_parser(
        "summarize", help="build a summary and write it as JSON"
    )
    add_summary_arguments(summarize)
    summarize.add_argument("--output", required=True, help="summary JSON path")
    summarize.set_defaults(func=_cmd_summarize)

    merge = subparsers.add_parser("merge", help="merge summary JSON files")
    merge.add_argument(
        "summaries", nargs="+", help="summary JSON files (plain or gzipped) to merge"
    )
    merge.add_argument("--k", type=int, default=10, help="tail parameter / items to print")
    merge.add_argument("--output", default=None, help="optionally write the merged summary")
    merge.set_defaults(func=_cmd_merge)

    experiments = subparsers.add_parser(
        "experiments", help="run the paper-reproduction experiment suite"
    )
    experiments.add_argument("--quick", action="store_true", help="reduced grid")
    experiments.set_defaults(func=_cmd_experiments)

    serve = subparsers.add_parser(
        "serve", help="run the sharded heavy-hitters service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7071, help="0 picks a free port")
    serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="also serve the operations HTTP plane (REST queries, /healthz, "
        "/readyz, Prometheus /metrics) on this port; 0 picks a free port",
    )
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="skip the metrics registry (the uninstrumented baseline; "
        "/metrics then answers 503)",
    )
    serve.add_argument("--counters", type=int, default=1_000, help="counter budget m per shard")
    serve.add_argument("--shards", type=int, default=4, help="hash-partitioned shard summaries")
    serve.add_argument(
        "--shard-backend",
        choices=["thread"],
        default="thread",
        help="shards are summaries in this interpreter, each chunk applied "
        "inline; thread is the only choice, accepted so existing launch "
        "scripts keep working",
    )
    serve.add_argument("--k", type=int, default=10, help="tail parameter of snapshot guarantees")
    serve.add_argument(
        "--window-buckets",
        type=int,
        default=0,
        help="enable sliding windows with this many ring buckets (0 = off)",
    )
    serve.add_argument(
        "--snapshot-interval",
        type=float,
        default=0.0,
        help="seconds between automatic snapshots (0 = snapshot on demand only)",
    )
    serve.add_argument(
        "--snapshot-dir", default=None, help="persist every snapshot version here"
    )
    serve.add_argument(
        "--compress", action="store_true", help="gzip persisted snapshots"
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        help="write-ahead log directory: every ingest chunk is logged before "
        "it reaches the shards, and a restart recovers prior state from it",
    )
    serve.add_argument(
        "--fsync",
        choices=("always", "interval", "off"),
        default="interval",
        help="WAL fsync policy: always = acked ingest is on disk; interval = "
        "fsync every --fsync-interval seconds; off = OS page cache only",
    )
    serve.add_argument(
        "--fsync-interval",
        type=float,
        default=1.0,
        help="seconds between WAL fsyncs under --fsync interval",
    )
    serve.add_argument(
        "--wal-segment-bytes",
        type=int,
        default=16 << 20,
        help="rotate WAL segments at this size",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=float,
        default=0.0,
        help="seconds between automatic WAL checkpoints (0 = on demand only)",
    )
    serve.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="structured log output: human-readable text or one JSON object "
        "per line (trace_id-correlated) for log aggregators",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum level emitted on the service loggers",
    )
    serve.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable request tracing entirely (/v1/traces answers an error)",
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.01,
        help="fraction of requests ambiently sampled into the trace ring "
        "(forced traces via ?trace=1 are always recorded)",
    )
    serve.add_argument(
        "--slow-request-seconds",
        type=float,
        default=1.0,
        help="log a WARNING for any request slower than this (0 disables)",
    )
    serve.add_argument(
        "--audit-rate",
        type=float,
        default=1.0 / 64.0,
        help="fraction of the key space mirrored exactly by the live "
        "accuracy auditor (0 disables auditing)",
    )
    serve.set_defaults(func=_cmd_serve)

    recover = subparsers.add_parser(
        "recover",
        help="rebuild service state from a write-ahead log directory",
    )
    recover.add_argument(
        "--wal-dir", required=True, help="WAL directory written by repro serve"
    )
    recover.add_argument(
        "--k",
        type=int,
        default=None,
        help="tail parameter of the guarantee (default: the served value)",
    )
    recover.add_argument(
        "--top-k", type=int, default=10, help="recovered items to print"
    )
    recover.add_argument(
        "--output", default=None, help="write the union of the recovered shards here"
    )
    recover.add_argument(
        "--compact",
        action="store_true",
        help="checkpoint the recovered state and prune replayed segments",
    )
    recover.set_defaults(func=_cmd_recover)

    query = subparsers.add_parser(
        "query", help="talk to a running heavy-hitters service"
    )
    query.add_argument(
        "action",
        choices=(
            "ping",
            "ingest",
            "snapshot",
            "checkpoint",
            "stats",
            "advance-window",
            "shutdown",
            "point",
            "top-k",
            "heavy-hitters",
            "window-point",
            "window-top-k",
            "window-heavy-hitters",
        ),
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7071)
    query.add_argument(
        "--http",
        action="store_true",
        help="talk to the operations HTTP plane on --host:--port instead of "
        "the NDJSON TCP socket (shutdown stays TCP-only)",
    )
    query.add_argument("--item", default=None, help="item for point queries")
    query.add_argument(
        "--tagged",
        action="store_true",
        help="interpret --item as a v2 type-tagged wire key, e.g. "
        "'t:[\"s:10.0.0.1\",\"i:443\"]' for a structured tuple token",
    )
    query.add_argument("--k", type=int, default=10, help="k for top-k queries")
    query.add_argument(
        "--phi", type=float, default=0.01, help="threshold for heavy-hitter queries"
    )
    query.add_argument(
        "--window", type=int, default=None, help="buckets covered by window queries"
    )
    query.add_argument("--steps", type=int, default=1, help="buckets to advance")
    query.add_argument("--input", default=None, help="workload file for ingest")
    query.add_argument("--weighted", action="store_true")
    query.add_argument(
        "--binary",
        action="store_true",
        help="require binary ingest frames, protocol 4 (error out "
        "against an older or NDJSON-only server instead of downgrading)",
    )
    query.add_argument(
        "--batch-size",
        type=int,
        default=batched.DEFAULT_CHUNK_SIZE,
        help="tokens per ingest request",
    )
    query.set_defaults(func=_cmd_query)

    lint = subparsers.add_parser(
        "lint",
        help="run the repo-specific concurrency lint engine",
        description="AST lint for lock discipline, critical-section "
        "hygiene, and exception boundaries (also: python -m repro.analysis).",
    )
    analysis_cli.build_parser(lint)
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
