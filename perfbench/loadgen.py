"""Load generation against a running service: producers and a reader.

Closed loop: one producer sends its next chunk only after the previous
ack.  A chunk is due the moment the previous ack arrived, so lateness is
the generator's own time between ack and next send.

Open loop: chunk ``i`` is due at ``start + i * period`` whatever the
service does; its ack latency is timed from when it was due, so a stall
also charges the chunks queued behind it.

Both producers add up the CPU time their own thread spends inside
``ingest`` calls (client encode and socket I/O), which is the client's
share of the end-to-end ingest cost.

A query *sample* is the fastest of ``REPEATS`` identical back-to-back
queries.  The host is a virtual machine whose CPUs the
hypervisor takes away for milliseconds at a time; a single op is often
stretched by that, three in a row seldom all are.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import serialization
from repro.service.client import ServiceClient, ServiceError

from perfbench.oracle import StreamOracle
from perfbench.workloads import Inputs

#: Back-to-back ops per latency sample; the sample is the fastest.
REPEATS = 3


@dataclass
class Tally:
    """Ops attempted and failed, shared by every phase of one run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, ok: bool, message: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(message)


@dataclass
class IngestPhase:
    tokens: int = 0
    seconds: float = 0.0
    ack_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    #: CPU time of the producer thread inside ``ingest`` calls.
    client_cpu_s: float = 0.0


def _send(client: ServiceClient, items: list, tally: Tally, phase: IngestPhase | None = None) -> bool:
    cpu = time.thread_time()
    try:
        acked = client.ingest(items)
    except (ServiceError, OSError) as error:
        tally.record(False, f"ingest failed: {error}")
        return False
    finally:
        if phase is not None:
            phase.client_cpu_s += time.thread_time() - cpu
    ok = acked == len(items)
    tally.record(ok, f"ingest acked {acked} of {len(items)} tokens")
    return ok


def warm_up(client: ServiceClient, inputs: Inputs, oracle: StreamOracle, tally: Tally) -> None:
    """Send the untimed prefix: every key once, then a few Zipf chunks."""
    for ids in inputs.warmup:
        if _send(client, inputs.items(ids), tally):
            oracle.ack(ids)


def closed_loop(
    client: ServiceClient,
    inputs: Inputs,
    oracle: StreamOracle,
    tally: Tally,
    seconds: float,
    phase: IngestPhase,
) -> None:
    """Send pool chunks back to back for ``seconds``, adding to ``phase``."""
    clock = time.perf_counter
    start = due = clock()
    index = len(phase.ack_ms)
    while True:
        items = inputs.pool_items(index)
        sent = clock()
        ok = _send(client, items, tally, phase)
        acked = clock()
        phase.late_ms.append((sent - due) * 1000.0)
        phase.ack_ms.append((acked - sent) * 1000.0)
        if ok:
            oracle.ack(inputs.pool_ids(index))
            phase.tokens += len(items)
        index += 1
        due = acked
        if acked - start >= seconds:
            break
    phase.seconds += clock() - start


def open_loop(
    client: ServiceClient,
    inputs: Inputs,
    oracle: StreamOracle,
    tally: Tally,
    seconds: float,
    rate: float,
    phase: IngestPhase,
) -> None:
    """Send pool chunks on a fixed schedule of ``rate`` tokens per second."""
    clock = time.perf_counter
    period = inputs.workload.chunk_tokens / rate
    start = clock()
    first = len(phase.ack_ms)
    for index in range(first, first + max(1, int(seconds / period))):
        due = start + (index - first) * period
        pause = due - clock()
        if pause > 0:
            time.sleep(pause)
        items = inputs.pool_items(index)
        sent = clock()
        ok = _send(client, items, tally, phase)
        acked = clock()
        phase.late_ms.append((sent - due) * 1000.0)
        phase.ack_ms.append((acked - due) * 1000.0)
        if ok:
            oracle.ack(inputs.pool_ids(index))
            phase.tokens += len(items)
    phase.seconds += clock() - start


def query_top_k(client: ServiceClient, k: int) -> dict:
    """A top-k query returning the whole response, entries decoded."""
    response = client.call({"op": "query", "type": "top-k", "k": k})
    response["top_k"] = [
        (
            serialization.decode_item_key(entry["item"])
            if entry.get("item_tagged")
            else entry["item"],
            entry["estimate"],
        )
        for entry in response["top_k"]
    ]
    return response


@dataclass
class QuerySeries:
    """Latency samples kept per op type, with every response for checking."""

    point_ms: list[float] = field(default_factory=list)
    topk_ms: list[float] = field(default_factory=list)
    responses: list[dict] = field(default_factory=list)


def _fastest(op, tally: Tally, responses: list[dict], what: str) -> float | None:
    """Milliseconds of the fastest of ``REPEATS`` calls of ``op``; None on failure."""
    clock = time.perf_counter
    fastest = math.inf
    for _ in range(REPEATS):
        started = clock()
        try:
            response = op()
        except (ServiceError, OSError) as error:
            tally.record(False, f"{what} failed: {error}")
            return None
        fastest = min(fastest, clock() - started)
        tally.record(True)
        responses.append(response)
    return fastest * 1000.0


def run_queries(
    client: ServiceClient,
    inputs: Inputs,
    tally: Tally,
    k: int,
    series: QuerySeries,
    stop: threading.Event | None = None,
    rounds: int = 0,
    period: float = 0.0,
) -> None:
    """Reader: three point samples, then one top-k sample, repeated.

    Runs ``rounds`` rounds, or until ``stop`` is set when one is given;
    adds to ``series``.  With a ``period``, sample ``i`` starts no
    earlier than ``i * period`` seconds after the first, so the reader
    offers the service a fixed load.
    """
    keys = inputs.point_keys
    clock = time.perf_counter
    start = clock()
    index = first = len(series.point_ms) + len(series.topk_ms)
    while (stop is not None and not stop.is_set()) or (
        stop is None and index < first + rounds * 4
    ):
        pause = start + (index - first) * period - clock()
        if pause > 0:
            time.sleep(pause)
        if index % 4 == 3:
            sample = _fastest(partial(query_top_k, client, k), tally, series.responses, "top-k")
            latencies = series.topk_ms
        else:
            item = inputs.item(keys[(index - index // 4) % len(keys)])
            sample = _fastest(partial(client.point, item), tally, series.responses, "point")
            latencies = series.point_ms
        if sample is not None:
            latencies.append(sample)
        index += 1


def snapshot_series(
    client: ServiceClient, tally: Tally, samples: int, latencies: list[float]
) -> None:
    """``samples`` timed ``snapshot`` ops; call on a quiesced service."""
    clock = time.perf_counter
    for _ in range(samples):
        started = clock()
        try:
            client.snapshot(drain=True)
        except (ServiceError, OSError) as error:
            tally.record(False, f"snapshot failed: {error}")
            continue
        latencies.append((clock() - started) * 1000.0)
        tally.record(True)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
