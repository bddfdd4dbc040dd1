"""The untraced end-to-end run: every end-to-end metric of one workload.

Order of one run, each step on its own server process so that no step
inherits another's backlog:

1. an untimed launch that warms the page cache and writes the crash
   image: a fixed prefix, a checkpoint, a fixed WAL tail, then SIGKILL;
2. the server under test, which receives the untimed warm-up prefix;
3. ``Plan.rounds`` rounds, each of: host-speed samples, a launch on an
   empty WAL, restarts on fresh copies of the crash image, a timed
   ingest round (closed or open loop) ended by a drained snapshot,
   ``snapshot`` ops on the quiesced service and, for the closed-loop
   workloads, point and top-k samples.  Spreading every series over the
   whole run makes each median cover the same stretch of host time;
4. a final drained snapshot and the exact checks behind
   ``max_error_frac``.

The host is a virtual machine whose CPUs the hypervisor gives to other
guests for milliseconds at a time ("steal"), by a share that changes
from minute to minute.  Wall-clock times of whole phases follow that
share; CPU times do not.  So launch, restart, ingest and snapshot costs
are measured as CPU time: a launch's or restart's is the server
process's own account of its CPU time from spawn to its first ``ping``
ack (it is killed right after); ingest's is the server's CPU time over
the timed rounds plus the producer's inside ``ingest`` calls; a
snapshot's is the server's and the client's over the snapshot ops.
Top-k latency stays wall-clock, each sample the fastest of three
back-to-back queries (see ``loadgen``).  Every time is then scaled to
a nominal host speed (see :class:`HostSpeed`).  The unscaled and the
wall-clock figures are printed on the notes lines.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import loadgen
from perfbench.loadgen import IngestPhase, QuerySeries, Tally
from perfbench.oracle import StreamOracle, Verdict
from perfbench.server import SERVER_CPUS, ServerProcess
from perfbench.workloads import Inputs, Workload


@dataclass(frozen=True)
class Plan:
    """How many samples of each kind one run takes.

    The timed ingest is split into ``rounds``; each round also takes one
    launch sample, ``restarts_per_round`` restart samples (a restart
    varies more than a launch) and ``batches`` batches of
    ``snapshots_per_batch`` snapshot ops and, on the closed-loop
    workloads, ``queries_per_batch`` rounds of three point samples and
    one top-k sample.  Short batches let the host-speed samples between
    them follow the host's quicker swings.
    """

    rounds: int = 8
    restarts_per_round: int = 2
    batches: int = 3
    snapshots_per_batch: int = 4
    queries_per_batch: int = 14
    #: Seconds between the open-loop workload's reader samples.
    reader_period: float = 0.02
    #: Tokens before the crash image's checkpoint (its WAL tail is sized
    #: per workload, see ``Workload.crash_tail_tokens``).
    crash_prefix_tokens: int = 65_536
    #: Traced run: snapshot refreshes, recoveries and backend-row chunks.
    traced_snapshots: int = 15
    recoveries: int = 3
    backend_chunks: int = 16


PLAN = Plan()
#: Tail parameter of the service's guarantees (``repro serve`` default).
K = 10


@dataclass
class Metrics:
    """Named measurements with units, in the order they were taken."""

    values: dict[str, tuple[float, str]] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def as_json(self) -> dict[str, dict[str, object]]:
        return {name: {"value": value, "unit": unit} for name, (value, unit) in self.values.items()}


class HostSpeed:
    """CPU time of a fixed pure-Python loop on the server's CPUs.

    The host's CPUs share their cores with other guests.  How hard those
    guests run moves the speed of the same work, CPU time included, by
    up to half, and a speed can hold for a second or switch within one.
    So the loop is timed between every two measured phases, and
    :meth:`factor` scales the phase that ran between the last two
    timings to a host on which the loop takes ``NOMINAL_MS``.
    """

    #: The loop's CPU time on the nominal host.
    NOMINAL_MS = 20.0
    ITERATIONS = 200_000
    REPEATS = 3

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._last = self._measure()

    @classmethod
    def _loop_ms(cls) -> float:
        started = time.thread_time()
        total = 0
        for value in range(cls.ITERATIONS):
            total += value * value & 1023
        return (time.thread_time() - started) * 1000.0

    def _measure(self) -> float:
        """Median of ``REPEATS`` loop times, from a thread on the server's CPUs."""
        times: list[float] = []

        def on_server_cpus() -> None:
            os.sched_setaffinity(0, SERVER_CPUS)  # this thread only
            times.extend(self._loop_ms() for _ in range(self.REPEATS))

        thread = threading.Thread(target=on_server_cpus, name="host-speed")
        thread.start()
        thread.join()
        self.samples_ms.append(statistics.median(times))
        return self.samples_ms[-1]

    def factor(self) -> float:
        """Scale for what ran since the previous call (or since creation)."""
        before, self._last = self._last, self._measure()
        return self.NOMINAL_MS / ((before + self._last) / 2)

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)


def chunks_for(inputs: Inputs, tokens: int, offset: int = 0) -> list[int]:
    """Pool indices of the first ``tokens`` worth of chunks after ``offset``."""
    count = max(1, tokens // inputs.workload.chunk_tokens)
    return list(range(offset, offset + count))


def build_crash_image(src: Path, work: Path, inputs: Inputs, plan: Plan) -> Path:
    """Write a fixed checkpoint + fixed WAL tail, then crash the server."""
    wal = work / "crash"
    server = ServerProcess(src, wal).launch()
    try:
        with server.client(inputs.workload.binary) as client:
            prefix = chunks_for(inputs, plan.crash_prefix_tokens)
            for index in prefix:
                client.ingest(inputs.pool_items(index))
            client.checkpoint()
            tail = chunks_for(inputs, inputs.workload.crash_tail_tokens, offset=len(prefix))
            for index in tail:
                client.ingest(inputs.pool_items(index))
    finally:
        server.kill()
    return wal


def time_restart(src: Path, work: Path, image: Path, attempt: int) -> ServerProcess:
    """Relaunch on a fresh copy of the crash image, killed at its first ping."""
    copy = work / f"restart-{attempt}"
    shutil.copytree(image, copy)
    server = ServerProcess(src, copy)
    try:
        server.launch()
    finally:
        server.kill()
        shutil.rmtree(copy, ignore_errors=True)
    return server


def time_setup(src: Path, work: Path, workload: Workload, attempt: int) -> ServerProcess:
    """One launch on an empty WAL, killed at its first ping."""
    server = ServerProcess(src, work / f"setup-{attempt}", snapshot_interval=workload.snapshot_interval)
    try:
        server.launch()
    finally:
        server.kill()
    return server


def dashboard_phase(
    server: ServerProcess,
    writer,
    inputs: Inputs,
    oracle: StreamOracle,
    tally: Tally,
    seconds: float,
    phase: IngestPhase,
    series: QuerySeries,
    period: float = PLAN.reader_period,
) -> None:
    """Open-loop producer on ``writer`` beside a reader on its own connection.

    The reader takes a sample every ``period`` seconds, so the service
    sees the same query load on every run.  The writer shares the
    interpreter with the reader thread: a short switch interval, for
    this phase only, keeps its sends close to their due times.
    """
    stop = threading.Event()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        with server.client(inputs.workload.binary) as reader_client:
            reader = threading.Thread(
                target=loadgen.run_queries,
                args=(reader_client, inputs, tally, K, series),
                kwargs={"stop": stop, "period": period},
                name="reader",
            )
            reader.start()
            try:
                loadgen.open_loop(
                    writer, inputs, oracle, tally, seconds, inputs.workload.open_rate, phase
                )
            finally:
                stop.set()
                reader.join()
    finally:
        sys.setswitchinterval(switch_interval)


def final_checks(client, inputs: Inputs, oracle: StreamOracle, tally: Tally) -> Verdict:
    """Drained snapshot, then top-k and the point sample checked exactly."""
    verdict = Verdict()
    snapshot = client.snapshot(drain=True)
    tally.record(True)
    if snapshot["stream_length"] != oracle.tokens:
        verdict.fail(
            f"drained snapshot holds {snapshot['stream_length']} tokens, "
            f"{oracle.tokens} were acked"
        )
        verdict.failed_ops += 1
    oracle.check(loadgen.query_top_k(client, K), verdict)
    for key in inputs.point_keys:
        oracle.check(client.point(inputs.item(key)), verdict)
    tally.attempted += verdict.checked
    return verdict


def _listed(values: list[float], digits: int) -> str:
    return ",".join(f"{value:.{digits}f}" for value in values)


@dataclass
class RunOutcome:
    metrics: Metrics
    tally: Tally
    verdicts: list[Verdict]
    notes: list[str]


def run(
    workload: Workload, seed: int, seconds: float, src: Path, work: Path, plan: Plan = PLAN
) -> RunOutcome:
    """One untraced run; ``seconds`` is the total of the timed ingest rounds."""
    notes: list[str] = []
    inputs = Inputs(workload, seed)
    oracle = StreamOracle.for_inputs(inputs)
    tally = Tally()
    image = build_crash_image(src, work, inputs, plan)
    launches: list[ServerProcess] = []
    restarts: list[ServerProcess] = []
    snapshot_ms: list[float] = []
    phase = IngestPhase()
    series = QuerySeries()
    round_rates: list[float] = []
    # Samples scaled to the nominal host speed (see HostSpeed); the CPU
    # totals are kept as [unscaled, scaled].
    scaled: dict[str, list[float]] = {name: [] for name in ("setup", "restart", "topk")}
    ingest_cpu = [0.0, 0.0]
    snapshot_cpu = [0.0, 0.0]
    server = ServerProcess(src, work / "server", snapshot_interval=workload.snapshot_interval)
    try:
        with server.launch().client(workload.binary) as client:
            loadgen.warm_up(client, inputs, oracle, tally)
            host = HostSpeed()

            def scale_new_topk(first: int, factor: float) -> None:
                scaled["topk"] += [ms * factor for ms in series.topk_ms[first:]]

            for round_ in range(plan.rounds):
                # Launch and restart samples are spread over the run, so
                # each median spans the same stretch of host time as the
                # ingest rounds.
                launches.append(time_setup(src, work, workload, round_))
                scaled["setup"].append(launches[-1].cpu_total * host.factor())
                for _ in range(plan.restarts_per_round):
                    restarts.append(time_restart(src, work, image, len(restarts)))
                    scaled["restart"].append(restarts[-1].cpu_total * host.factor())

                client.snapshot(drain=True)
                tokens, seconds_so_far, topks = phase.tokens, phase.seconds, len(series.topk_ms)
                # The closed loop runs in batches like the queries; the open
                # loop keeps one schedule for the round.
                batches = plan.batches if workload.open_rate is None else 1
                for batch in range(batches):
                    cpu = server.cpu_seconds() + phase.client_cpu_s
                    if workload.open_rate is None:
                        loadgen.closed_loop(
                            client, inputs, oracle, tally, seconds / plan.rounds / batches, phase
                        )
                    else:
                        dashboard_phase(
                            server, client, inputs, oracle, tally, seconds / plan.rounds, phase,
                            series, plan.reader_period,
                        )
                    if batch == batches - 1:
                        # Applying the round's queued chunks is part of its cost.
                        client.snapshot(drain=True)
                    cpu = server.cpu_seconds() + phase.client_cpu_s - cpu
                    factor = host.factor()
                    ingest_cpu[0] += cpu
                    ingest_cpu[1] += cpu * factor
                scale_new_topk(topks, factor)
                round_rates.append((phase.tokens - tokens) / (phase.seconds - seconds_so_far))

                for _ in range(plan.batches):
                    cpu = server.cpu_seconds() + time.thread_time()
                    loadgen.snapshot_series(client, tally, plan.snapshots_per_batch, snapshot_ms)
                    cpu = server.cpu_seconds() + time.thread_time() - cpu
                    factor = host.factor()
                    snapshot_cpu[0] += cpu
                    snapshot_cpu[1] += cpu * factor
                    if workload.open_rate is None:
                        topks = len(series.topk_ms)
                        loadgen.run_queries(client, inputs, tally, K, series, rounds=plan.queries_per_batch)
                        scale_new_topk(topks, host.factor())
            final = final_checks(client, inputs, oracle, tally)
        rss_mb = server.peak_rss_mb()
        server.shutdown_ms()
    finally:
        server.kill()
    verdict_queries = Verdict()
    for response in series.responses:
        oracle.check(response, verdict_queries)

    median = statistics.median
    unscaled = {
        "setup_s": median(launch.cpu_total for launch in launches),
        "ingest_cpu_ns_per_tok": ingest_cpu[0] * 1e9 / phase.tokens,
        "snapshot_cpu_ms": snapshot_cpu[0] * 1000.0 / len(snapshot_ms),
        "topk_p50_ms": loadgen.percentile(series.topk_ms, 50),
        "restart_s": median(restart.cpu_total for restart in restarts),
    }
    metrics = Metrics()
    metrics.put("setup_s", median(scaled["setup"]), "s")
    metrics.put("ingest_cpu_ns_per_tok", ingest_cpu[1] * 1e9 / phase.tokens, "ns/tok")
    metrics.put("snapshot_cpu_ms", snapshot_cpu[1] * 1000.0 / len(snapshot_ms), "ms")
    metrics.put("topk_p50_ms", loadgen.percentile(scaled["topk"], 50), "ms")
    metrics.put("restart_s", median(scaled["restart"]), "s")
    metrics.put("server_rss_mb", rss_mb, "MB")
    metrics.put("max_error_frac", final.max_error, "fraction")

    late_p90 = loadgen.percentile(phase.late_ms, 90)
    notes.append(
        f"rounds: tok_s={_listed(round_rates, 0)} "
        f"setup_cpu_s={_listed([launch.cpu_total for launch in launches], 3)} "
        f"restart_cpu_s={_listed([restart.cpu_total for restart in restarts], 3)} "
        f"host_ms={_listed(host.samples_ms, 1)}"
    )
    notes.append(
        "unscaled: " + " ".join(f"{name}={value:.6g}" for name, value in unscaled.items())
    )
    # Printed, not declared: wall-clock figures follow the host's steal
    # share, and the tails spread even within one run.
    notes.append(
        f"wall-clock: ingest_tok_s={phase.tokens / phase.seconds:.0f} "
        f"ingest_ack_p50_ms={loadgen.percentile(phase.ack_ms, 50):.4f} "
        f"ingest_ack_p90_ms={loadgen.percentile(phase.ack_ms, 90):.4f} "
        f"snapshot_p50_ms={loadgen.percentile(snapshot_ms, 50):.4f} "
        f"point_p50_ms={loadgen.percentile(series.point_ms, 50):.4f} "
        f"point_p90_ms={loadgen.percentile(series.point_ms, 90):.4f} "
        f"topk_p90_ms={loadgen.percentile(series.topk_ms, 90):.4f} "
        f"setup_s={median(launch.ready_seconds for launch in launches):.4f} "
        f"restart_s={median(restart.ready_seconds for restart in restarts):.4f}"
    )
    notes.append(
        f"host.calibration_ms={host.median_ms():.3f} "
        f"loadgen.late_p90_ms={late_p90:.3f} "
        f"chunks={len(phase.ack_ms)} points={len(series.point_ms)} "
        f"topks={len(series.topk_ms)} snapshots={len(snapshot_ms)} "
        f"launches={len(launches)} restarts={len(restarts)}"
    )
    if workload.open_rate is not None:
        period_ms = 1000.0 * workload.chunk_tokens / workload.open_rate
        if late_p90 > period_ms / 2:
            notes.append(
                f"FLAG: the open-loop generator fell behind (late p90 {late_p90:.1f} ms "
                f"> half the {period_ms:.1f} ms period); latencies include its lag"
            )
    return RunOutcome(metrics, tally, [final, verdict_queries], notes)
