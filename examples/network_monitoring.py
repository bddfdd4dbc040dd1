"""Network monitoring: heavy-hitter flows, from flat ids to 5-tuple keys.

This is the workload the paper's introduction motivates (network measurement
with limited per-router memory).  A synthetic packet trace with Zipfian flow
popularity and bursty arrivals stands in for a real capture; we find

* the flows sending the most *packets* (unit-weight stream),
* the flows sending the most *bytes* (real-valued weights, Section 6.1),
* the heaviest *5-tuple flow keys* -- ``(src, dst, sport, dport, proto)`` --
  pushed through the full heavy-hitters service loop over its TCP socket:
  bulk ingest as wire-protocol-v4 binary frames (negotiated on the first
  ping; queries stay NDJSON on the same connection), a snapshot whose
  answers come from each flow's owner shard with the shards' verified
  ``(1, 1)`` k-tail guarantee, point / top-k / heavy-hitter queries, gzip
  persistence, and a reload from disk of the persisted union of shard
  copies that answers exactly as the service did, under the same
  ``(1, 1)`` guarantee, and
* the same pipeline *crashing mid-stream* with a write-ahead log enabled:
  the process is abandoned SIGKILL-style between acks, ``recover()``
  rebuilds the state from the log, zero acked packets are lost, and the
  revived service keeps ingesting on top of the recovered state, and
* one *force-traced* ingest and query: ``trace=True`` makes the server
  record per-stage spans (decode, admission, shard apply, ...) and hand
  the latency breakdown back on the response -- the first tool to reach
  for when the service is slow.

Structured keys ride wire format v2 (type-tagged tokens), so the exact
tuples come back from every query; tokens the wire cannot carry are
rejected synchronously at the client before a byte is sent.

Run with:  python examples/network_monitoring.py
"""

import collections
import tempfile
import threading
from pathlib import Path

from repro import SpaceSaving, SpaceSavingR
from repro.core import check_tail_guarantee
from repro.core.bounds import k_tail_bound
from repro.core.tail_guarantee import GuaranteeCheck, TailGuarantee
from repro.metrics.error import max_error, residual
from repro.serialization import SerializationError
from repro.service import HeavyHittersService, ServiceConfig, recover, serve
from repro.service.client import ServiceClient
from repro.service.recovery import resume_service
from repro.service.snapshots import SnapshotManager
from repro.streams.batched import iter_chunks
from repro.streams.exact import ExactCounter
from repro.streams.trace import SyntheticTraceGenerator

NUM_FLOWS = 50_000
NUM_PACKETS = 120_000
COUNTERS = 2_000
CHUNK = 8_192
TOP = 10
K = 50


def packets_per_flow(trace) -> None:
    print("=== packets per flow (unit weights) ===")
    summary = SpaceSaving(num_counters=COUNTERS)
    trace.feed(summary, chunk_size=CHUNK)

    exact = ExactCounter()
    trace.feed(exact, chunk_size=CHUNK)
    print(f"summary footprint : {summary.size_in_words():,} words")
    print(f"exact footprint   : {exact.size_in_words():,} words")

    frequencies = trace.frequencies()
    print(f"\ntop {TOP} flows by estimated packet count:")
    for flow, estimate in summary.top_k(TOP):
        print(f"  flow {flow:>6}: estimated {estimate:8.0f}   true {frequencies[flow]:8.0f}")

    check = check_tail_guarantee(summary, frequencies, k=K)
    print(
        f"\nk-tail guarantee (k={K}): observed {check.observed:.1f} <= bound {check.bound:.1f}"
        f"  -> {check.holds}"
    )


def bytes_per_flow(generator: SyntheticTraceGenerator) -> None:
    print("\n=== bytes per flow (real-valued weights, SPACESAVING_R) ===")
    byte_trace = generator.byte_stream(NUM_PACKETS)
    summary = SpaceSavingR(num_counters=COUNTERS)
    byte_trace.feed(summary, chunk_size=CHUNK)

    frequencies = byte_trace.frequencies()
    print(f"total traffic: {byte_trace.total_weight / 1e6:.1f} MB")
    print(f"\ntop {TOP} flows by estimated byte volume:")
    for flow, estimate in summary.top_k(TOP):
        true = frequencies.get(flow, 0.0)
        print(
            f"  flow {flow:>6}: estimated {estimate / 1e3:9.1f} KB"
            f"   true {true / 1e3:9.1f} KB"
        )

    guarantee = TailGuarantee.for_algorithm(summary)
    check = GuaranteeCheck(
        observed=max_error(frequencies, summary),
        bound=guarantee.bound(residual(frequencies, K), COUNTERS, K),
    )
    print(
        f"\nweighted k-tail guarantee (k={K}): observed {check.observed:,.0f} bytes"
        f" <= bound {check.bound:,.0f} bytes  -> {check.holds}"
    )


def flow_key_of(flow_id: int):
    """Deterministic 5-tuple ``(src, dst, sport, dport, proto)`` for a flow."""
    return (
        f"10.0.{(flow_id >> 8) & 255}.{flow_id & 255}",
        f"192.168.0.{flow_id % 32}",
        1024 + flow_id % 500,
        443,
        "tcp" if flow_id % 3 else "udp",
    )


def five_tuples_through_the_service(trace) -> None:
    print("\n=== 5-tuple flow keys through the heavy-hitters service ===")
    flows = [flow_key_of(int(flow_id)) for flow_id in trace.items]
    exact = collections.Counter(flows)

    with tempfile.TemporaryDirectory() as snapshot_dir:
        config = ServiceConfig(
            num_counters=COUNTERS,
            num_shards=4,
            k=K,
            snapshot_dir=snapshot_dir,
            compress=True,
        )
        server = serve(config, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServiceClient(port=server.port) as client:
                # Structured tuple tokens are tagged transparently on the
                # wire (protocol v2); a token the wire format cannot carry
                # fails here, synchronously, before a byte is sent.
                try:
                    client.ingest([["a", "list", "is", "not", "a", "token"]])
                except SerializationError as error:
                    print(f"rejected at the client boundary: {error}")

                # Bulk ingest rides wire protocol v4: the client negotiated
                # binary frames on its first ping, so each chunk crosses as
                # one length-prefixed frame carrying the CRC-framed chunk
                # record -- each distinct flow tuple encoded once in the
                # chunk vocabulary instead of tagged per occurrence.
                for chunk in iter_chunks(flows, CHUNK):
                    client.ingest(chunk)
                print(
                    f"bulk ingest over wire protocol {client.protocol} "
                    f"(binary frames): {len(flows):,} packets"
                )
                meta = client.snapshot(drain=True)
                guarantee = meta["guarantee"]
                print(
                    f"snapshot v{meta['version']}: {meta['stream_length']:,.0f} packets "
                    f"across {len(meta['shard_lengths'])} shards, "
                    f"owner-shard constants (A={guarantee['a']:.0f}, B={guarantee['b']:.0f}), "
                    f"{meta['wire']['wire_bytes']:,} bytes gzipped on disk"
                )

                answer_bound = k_tail_bound(
                    residual(exact, K),
                    int(guarantee["num_counters"]),
                    K,
                    a=guarantee["a"],
                    b=guarantee["b"],
                )
                print(f"\ntop {TOP} flows by estimated packet count:")
                served_top = client.top_k(TOP)
                for flow, estimate in served_top:
                    src, dst, sport, dport, proto = flow
                    print(
                        f"  {src:>13} -> {dst:<15} {sport:>5}/{dport} {proto:<4}"
                        f" estimated {estimate:8.0f}   true {exact[flow]:8.0f}"
                    )
                    assert abs(estimate - exact[flow]) <= answer_bound, "(A, B) must hold"
                print(f"every top-{TOP} answer is within the (A, B) bound {answer_bound:,.1f}")

                heaviest = client.top_k(1)[0][0]
                point = client.point(heaviest)
                print(
                    f"\npoint query for the heaviest flow {point['item']}: "
                    f"{point['estimate']:,.0f}"
                )
                hitters = client.heavy_hitters(phi=0.01)
                print(f"flows above 1% of traffic: {len(hitters)}")

                # Force-trace one ingest and one query: the server records
                # per-stage spans and attaches the breakdown to the
                # response (a traced ingest waits for its batches to apply,
                # so the shard_apply span is inline).
                print("\nforce-traced ingest (per-stage latency):")
                client.ingest(flows[:CHUNK], trace=True)
                breakdown = client.last_trace
                print(f"  trace {breakdown['trace_id']}")
                for span in breakdown["spans"]:
                    print(f"    {span['name']:<14} {span['ms']:8.3f} ms")
                print(f"    {'total':<14} {breakdown['total_ms']:8.3f} ms")
                client.top_k(TOP, trace=True)
                query_trace = client.last_trace
                stages = ", ".join(span["name"] for span in query_trace["spans"])
                print(
                    f"force-traced top-{TOP} query: {query_trace['total_ms']:.3f} ms"
                    f" across stages [{stages}]"
                )
                snapshot_path = Path(meta["path"])
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()

        # Reload the persisted snapshot (wire format v2 carries the tuples):
        # the file holds the union of the shard copies, so it answers as the
        # service did and keeps the owner-shard (A, B) guarantee.
        reloaded = SnapshotManager.load(snapshot_path)
        observed = max_error(exact, reloaded)
        print(
            f"\nreloaded {snapshot_path.name}: owner-shard k-tail guarantee (k={K}): "
            f"observed {observed:,.1f} <= bound {answer_bound:,.1f} -> "
            f"{observed <= answer_bound}"
        )
        assert observed <= answer_bound, "(A, B) must hold after reload"
        assert reloaded.top_k(TOP) == served_top, "the file answers as the service"
        assert reloaded.estimate(heaviest) == point["estimate"]


def kill_and_recover(trace) -> None:
    print("\n=== durability: crash mid-stream, recover from the WAL ===")
    flows = [flow_key_of(int(flow_id)) for flow_id in trace.items]
    chunks = list(iter_chunks(flows, CHUNK))
    with tempfile.TemporaryDirectory() as wal_root:
        wal_dir = Path(wal_root) / "wal"
        config = ServiceConfig(
            num_counters=COUNTERS,
            num_shards=4,
            k=K,
            wal_dir=str(wal_dir),
            fsync="always",  # an acked chunk is on disk before the ack
        )
        service = HeavyHittersService(config).start()
        acked = collections.Counter()
        crash_at = max(1, len(chunks) // 2)
        for index, chunk in enumerate(chunks):
            if index == crash_at:
                break
            response = service.handle({"op": "ingest", "items": chunk})
            assert response["ok"] and response["durable"]
            acked.update(chunk)
        # SIGKILL stand-in: abandon the service object mid-stream -- no
        # shutdown, no flush, no close.  Everything acked is already on
        # the log, whatever was in flight is legitimately gone.
        print(
            f"simulated crash after {sum(acked.values()):,} acked packets "
            f"({crash_at} of {len(chunks)} chunks)"
        )

        result = recover(wal_dir)
        print(
            f"recovered {result.tokens_replayed:,} packets from "
            f"{result.scan.segments_scanned} WAL segment(s): "
            f"stream weight {result.stream_length:,.0f}"
        )
        assert result.stream_length >= float(sum(acked.values()))
        for flow, count in acked.most_common(3):
            estimate = result.estimator.estimate(flow)
            src, dst, sport, dport, proto = flow
            print(
                f"  {src:>13} -> {dst:<15} {sport:>5}/{dport} {proto:<4}"
                f" recovered {estimate:8.0f}   acked {count:8.0f}"
            )
            assert estimate >= count, "an acked packet went missing"
        check = result.merge.check(dict(acked))
        print(
            f"owner-shard (A, B) guarantee after recovery: observed "
            f"{check.observed:,.1f} <= bound {check.bound:,.1f} -> {check.holds}"
        )
        assert check.holds, "recovered state must keep the owner-shard bound"

        # Restart on the same WAL directory: the state comes back and new
        # traffic lands on top of it.
        revived, recovered_state = resume_service(config)
        revived.start()
        revived.handle({"op": "ingest", "items": chunks[crash_at]})
        revived.handle({"op": "checkpoint"})  # compact the log
        revived.sharded.flush()
        total = sum(acked.values()) + len(chunks[crash_at])
        print(
            f"revived service: {revived.sharded.stream_length:,.0f} packets "
            f"after re-ingesting the lost chunk (expected {total:,})"
        )
        assert revived.sharded.stream_length == float(total)
        revived.close()


def main() -> None:
    generator = SyntheticTraceGenerator(num_flows=NUM_FLOWS, alpha=1.15, seed=7)
    # Trace synthesis dominates the example's runtime, so the packet trace
    # is generated once and shared by the flat-id and 5-tuple sections.
    trace = generator.packet_stream(NUM_PACKETS)
    packets_per_flow(trace)
    bytes_per_flow(generator)
    five_tuples_through_the_service(trace)
    kill_and_recover(trace)


if __name__ == "__main__":
    main()
