"""Fault-injection end-to-end tests: SIGKILL a live service, recover, verify.

The durability contract under test: with ``--wal-dir`` and
``--fsync always``, an ingest ack means the chunk is on disk -- so after
killing the server process with SIGKILL (no cleanup, no atexit, torn
final frame and all), ``repro recover`` must rebuild a state that

* contains every acked token (zero acked loss; unacked in-flight chunks
  may or may not have made it -- both are legal), and
* still satisfies the shards' own ``(1, 1)`` k-tail guarantee against
  an exact oracle of everything the log retained: the recovered shards
  are key-disjoint, so recovery answers from their union, as a live
  snapshot does.

A committed torn-WAL fixture (``tests/data/wal-torn/``) pins the on-disk
format: a crash image produced by one build must stay recoverable by
every later build.

Post-mortem artifacts: when ``FAULT_ARTIFACT_DIR`` is set (CI exports it
and uploads the directory on failure), every spawned server runs with
``--log-format json`` at full trace sampling, its output is streamed to
``server-<port>.log`` in that directory, and the trace ring is dumped
via the TCP ``traces`` op just before each deliberate SIGKILL -- so a
failing run leaves the structured logs and traces a debugger needs.
"""

import collections
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.service import ServiceError, ServiceClient, recover
from repro.streams.batched import iter_chunks
from repro.streams.exact import ExactCounter
from repro.streams.generators import zipf_stream

DATA_DIR = Path(__file__).parent / "data"

#: ~100k tokens, skewed, mixed over a 10k-item domain.
STREAM_LENGTH = 100_000
CHUNK_SIZE = 4_096


def _artifact_dir():
    """Post-mortem artifact directory, or None outside CI."""
    configured = os.environ.get("FAULT_ARTIFACT_DIR")
    if not configured:
        return None
    path = Path(configured)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dump_trace_ring(port, name):
    """Best-effort trace-ring dump before a deliberate kill.

    Failure is fine (the server may already be gone); the dump exists
    for humans debugging a red CI run, not for assertions.
    """
    directory = _artifact_dir()
    if directory is None:
        return
    try:
        with ServiceClient(port=port, timeout=10.0) as client:
            traces = client.traces()
        (directory / f"{name}-traces.json").write_text(
            json.dumps(traces, indent=2, default=str), encoding="utf-8"
        )
    except (ServiceError, OSError):
        pass


def _spawn_server(wal_dir, extra_args=()):
    """Run ``repro serve`` in a subprocess; returns (process, port)."""
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    artifact_dir = _artifact_dir()
    artifact_args = (
        ("--log-format", "json", "--trace-sample-rate", "1.0")
        if artifact_dir is not None
        else ()
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--shards",
            "4",
            "--counters",
            "512",
            "--k",
            "8",
            "--wal-dir",
            str(wal_dir),
            "--fsync",
            "always",
            *artifact_args,
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        banner = ""
        while time.monotonic() < deadline:
            banner = process.stdout.readline()
            if "serving" in banner:
                break
            if process.poll() is not None:
                raise AssertionError(
                    f"serve exited early: {banner}{process.stdout.read()}"
                )
        assert " on " in banner, f"no serve banner within 30s: {banner!r}"
        port = int(banner.rsplit(":", 1)[1])
        if artifact_dir is not None:
            # Stream the server's JSON logs to the artifact directory on a
            # daemon thread.  This also keeps the stdout pipe drained --
            # full-sample tracing logs far more than the banner reader
            # consumes, and a full pipe would block the server.
            log_path = artifact_dir / f"server-{port}.log"

            def pump(stdout=process.stdout, path=log_path):
                with open(path, "w", encoding="utf-8") as sink:
                    for line in stdout:
                        sink.write(line)
                        sink.flush()

            threading.Thread(target=pump, daemon=True).start()
        return process, port
    except BaseException:
        process.kill()
        raise


@pytest.mark.parametrize("kill_after_chunks", [12])
def test_sigkill_mid_stream_loses_no_acked_token(tmp_path, kill_after_chunks):
    wal_dir = tmp_path / "wal"
    stream = zipf_stream(num_items=10_000, alpha=1.1, total=STREAM_LENGTH, seed=97)
    chunks = list(iter_chunks(stream.items, CHUNK_SIZE))
    process, port = _spawn_server(wal_dir)
    acked = []
    killed = False
    try:
        with ServiceClient(port=port, timeout=30.0) as client:
            for index, chunk in enumerate(chunks):
                if index == kill_after_chunks:
                    # SIGKILL between two acks, with half the stream still
                    # outstanding: no shutdown handler runs, nothing after
                    # this point may ever count as acked.  (Deterministic
                    # by construction -- a sleep-based concurrent killer
                    # can lose the race against a fast server and flake.)
                    _dump_trace_ring(port, "sigkill-mid-stream")
                    process.send_signal(signal.SIGKILL)
                    process.wait(timeout=30)
                    killed = True
                try:
                    client.ingest(chunk)
                except (ServiceError, OSError):
                    assert killed, "ingest failed before the kill"
                    break
                assert not killed, "server acked a chunk after SIGKILL"
                # fsync=always: this ack means the chunk is on disk.
                assert client.last_ingest_durable
                acked.append(chunk)
            else:
                pytest.fail("client drained every chunk despite the kill")
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=30)
    assert killed
    assert len(acked) == kill_after_chunks

    # ---- recover and verify zero acked loss ---------------------------- #
    acked_counts = collections.Counter(
        item for chunk in acked for item in chunk
    )
    result = recover(wal_dir)  # config comes from the wal-config manifest
    assert result.scan.segments_scanned >= 1
    # Everything acked is in the log; an extra in-flight chunk is legal.
    assert result.stream_length >= float(sum(acked_counts.values()))
    assert result.stream_length <= float(len(stream.items))

    # Differential oracle: replay the same log into exact counters.
    exact = recover(
        wal_dir, make_estimator=ExactCounter, num_shards=4, k=8
    )
    oracle = collections.Counter()
    for estimator in exact.estimators:
        for item, count in estimator.counters().items():
            oracle[item] += count
    for item, count in acked_counts.items():
        assert oracle[item] >= count, f"acked occurrences of {item!r} lost"

    # The recovered union still satisfies the owner-shard (1, 1) bound
    # against the exact oracle of what the log retained.
    constants = result.merge.merged_constants
    assert (constants.a, constants.b) == (1.0, 1.0)
    check = result.merge.check(dict(oracle))
    assert check.holds, check.description
    # Counter summaries never undercount: every acked heavy item is fully
    # visible in the recovered estimate.
    for item, count in acked_counts.most_common(10):
        assert result.estimator.estimate(item) >= count


@pytest.mark.parametrize("kill_after_chunks", [12])
def test_sigkill_mid_binary_stream_loses_no_acked_token(
    tmp_path, kill_after_chunks
):
    """The wire-v3 durability contract: a binary-frame ack at
    ``fsync=always`` means the client's exact chunk bytes are on disk, so
    a SIGKILL between acks loses nothing that was acked and the log
    replays through the same ``repro recover`` path as NDJSON ingest."""
    wal_dir = tmp_path / "wal"
    stream = zipf_stream(num_items=10_000, alpha=1.1, total=STREAM_LENGTH, seed=181)
    chunks = list(iter_chunks([f"flow-{int(v)}" for v in stream.items], CHUNK_SIZE))
    process, port = _spawn_server(wal_dir)
    acked = []
    killed = False
    try:
        with ServiceClient(port=port, timeout=30.0, binary="always") as client:
            for index, chunk in enumerate(chunks):
                if index == kill_after_chunks:
                    _dump_trace_ring(port, "sigkill-mid-binary-stream")
                    process.send_signal(signal.SIGKILL)
                    process.wait(timeout=30)
                    killed = True
                try:
                    client.ingest(chunk)
                except (ServiceError, OSError):
                    assert killed, "binary ingest failed before the kill"
                    break
                assert not killed, "server acked a frame after SIGKILL"
                # fsync=always: the frame's record is on disk at ack time.
                assert client.last_ingest_durable
                acked.append(chunk)
            else:
                pytest.fail("client drained every chunk despite the kill")
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=30)
    assert killed
    assert len(acked) == kill_after_chunks

    acked_counts = collections.Counter(
        item for chunk in acked for item in chunk
    )
    result = recover(wal_dir)
    assert result.stream_length >= float(sum(acked_counts.values()))

    # Differential oracle over the same (client-encoded) log frames.
    exact = recover(wal_dir, make_estimator=ExactCounter, num_shards=4, k=8)
    oracle = collections.Counter()
    for estimator in exact.estimators:
        for item, count in estimator.counters().items():
            oracle[item] += count
    for item, count in acked_counts.items():
        assert oracle[item] >= count, f"acked occurrences of {item!r} lost"
    constants = result.merge.merged_constants
    assert (constants.a, constants.b) == (1.0, 1.0)
    check = result.merge.check(dict(oracle))
    assert check.holds, check.description
    for item, count in acked_counts.most_common(10):
        assert result.estimator.estimate(item) >= count


def test_recover_cli_reports_the_killed_state(tmp_path, capsys):
    """The CLI verb recovers a fresh SIGKILL image end to end."""
    wal_dir = tmp_path / "wal"
    process, port = _spawn_server(wal_dir)
    try:
        with ServiceClient(port=port) as client:
            client.ingest(["alpha"] * 600 + ["beta"] * 250)
            client.ingest([f"noise-{index}" for index in range(150)])
    finally:
        _dump_trace_ring(port, "recover-cli")
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    output = tmp_path / "recovered.json"
    code = main(
        [
            "recover",
            "--wal-dir",
            str(wal_dir),
            "--top-k",
            "3",
            "--output",
            str(output),
            "--compact",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recovered 1,000 tokens" in out
    assert "owner-shard guarantee A=1, B=1" in out
    assert "alpha" in out
    assert "compacted WAL into" in out
    from repro import serialization

    written = serialization.loads(output.read_text(encoding="utf-8"))
    assert written.estimate("alpha") >= 600.0
    # After --compact the log is checkpointed: a second recovery replays
    # nothing but still answers identically.
    second = recover(wal_dir)
    assert second.chunks_replayed == 0
    assert second.estimator.top_k(len(second.estimator)) == written.top_k(len(written))


def test_serve_restart_recovers_and_keeps_serving(tmp_path):
    """Crash -> restart with the same --wal-dir -> state is back, new
    traffic lands on top of it."""
    wal_dir = tmp_path / "wal"
    process, port = _spawn_server(wal_dir)
    try:
        with ServiceClient(port=port) as client:
            client.ingest(["persistent"] * 500)
    finally:
        _dump_trace_ring(port, "restart-first-life")
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    process, port = _spawn_server(wal_dir)
    try:
        with ServiceClient(port=port) as client:
            client.ingest(["persistent"] * 100)
            client.snapshot()
            assert client.estimate("persistent") == 600.0
            stats = client.stats()
            assert stats["wal"]["fsync"] == "always"
    finally:
        _dump_trace_ring(port, "restart-second-life")
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)


class TestTornFixture:
    """The committed crash image stays recoverable across builds."""

    FIXTURE = DATA_DIR / "wal-torn"

    def test_fixture_recovers_with_truncated_tail(self):
        result = recover(self.FIXTURE)
        assert result.scan.torn_tail
        assert result.scan.truncated_bytes > 0
        assert result.chunks_replayed == 3
        assert result.tokens_replayed == 85
        assert result.stream_length == 95.0  # third chunk carries weight 2.0
        assert result.estimator.estimate("alpha") == 60.0
        assert result.estimator.estimate(("10.0.0.1", 443)) == 12.0
        # The torn fourth chunk ("lost" * 30) must not leak into the state.
        assert result.estimator.estimate("lost") == 0.0

    def test_fixture_recovers_via_cli(self, capsys):
        assert main(["recover", "--wal-dir", str(self.FIXTURE)]) == 0
        out = capsys.readouterr().out
        assert "truncated torn tail" in out
        assert "alpha" in out
