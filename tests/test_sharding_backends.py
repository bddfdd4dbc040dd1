"""Shard-backend tests: the inline thread backend and the process backend.

Covers the thread backend's inline contract -- parts are applied (and
traced) before ``ingest()`` returns, no threads are started, a part
that fails is dropped and accounted per shard -- that the service can
only run on it, and the process backend reached through an explicit
``backend="process"``: lifecycle, thread/process bit-identity,
supervised restart (empty) after SIGKILL, and the supervisor columns in
``queue_stats()``.
"""

import collections
import os
import signal
import threading
import time

import pytest

from repro import serialization
from repro.algorithms.space_saving import SpaceSaving
from repro.engine.codec import TokenCodec
from repro.service.server import HeavyHittersService, ServiceConfig
from repro.service.sharding import ShardedSummarizer, shard_for
from repro.streams.exact import ExactCounter

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


class UnregisteredCounter(ExactCounter):
    """Outside the serialisation registry; picklable (module-level)."""


def _token_for_shard(shard_id, num_shards, prefix="tok"):
    """A token that shard_for routes to ``shard_id``."""
    for i in range(10_000):
        token = f"{prefix}{i}"
        if shard_for(token, num_shards) == shard_id:
            return token
    raise AssertionError("no token found for shard")


class SlowCounter(ExactCounter):
    """An exact counter whose batches take long enough to race a reader."""

    def update_batch(self, items, weights=None):
        time.sleep(0.05)
        super().update_batch(items, weights)


class TestInlineThreadShards:
    """The thread backend applies every part in the caller's thread."""

    def test_ingest_applies_before_returning(self, encode):
        with ShardedSummarizer(SlowCounter, num_shards=2) as sharded:
            sharded.ingest(encode([f"tok{i}" for i in range(50)]))
            # No flush(): the tokens are already on their shards.
            stats = sharded.queue_stats()
            assert sum(row["tokens_applied"] for row in stats) == 50
            assert all(row["pending_batches"] == 0 for row in stats)
            assert sharded.stream_length == 50.0

    def test_start_starts_no_thread(self):
        before = set(threading.enumerate())
        sharded = ShardedSummarizer(ExactCounter, num_shards=4).start()
        try:
            # A set, not active_count(): another test's thread may exit
            # meanwhile, but none may appear.
            assert set(threading.enumerate()) <= before
            assert sharded.workers_alive()
        finally:
            sharded.close()
        assert not sharded.workers_alive()

    def test_sampled_trace_holds_its_spans_on_return(self, encode):
        from repro.service.tracing import Trace, TraceContext

        trace = Trace(op="ingest", context=TraceContext.new())
        tokens = [_token_for_shard(0, 2), _token_for_shard(1, 2)] * 3
        with ShardedSummarizer(SlowCounter, num_shards=2) as sharded:
            sharded.ingest(encode(tokens), trace=trace)
            spans = [
                s for s in trace.as_dict()["spans"] if s["name"] == "shard_apply"
            ]
        assert sorted(span["shard"] for span in spans) == [0, 1]
        assert sum(span["tokens"] for span in spans) == 6


class TestFanOutAccounting:
    """Regression: tokens_enqueued/batches_enqueued were bumped once
    after the whole fan-out loop, so a part that failed midway left the
    parts already delivered (and applied!) unaccounted, drifting the
    queue_stats()-backed metrics away from shard applied totals."""

    def test_partial_fanout_still_counts_delivered_parts(self, encode):
        shard0 = _token_for_shard(0, 2)
        shard1 = _token_for_shard(1, 2)

        class FailsOnShard1(ExactCounter):
            def update_batch(self, items, weights=None):
                if shard1 in items:
                    raise RuntimeError("shard 1 broke")
                super().update_batch(items, weights)

        with ShardedSummarizer(FailsOnShard1, num_shards=2) as sharded:
            sharded.ingest(encode([shard0, shard0, shard1]))
            # Shard 0 applied its two tokens; shard 1's part was dropped
            # and its error waits for the next flush.
            assert sharded.tokens_enqueued == 2
            assert sharded.batches_enqueued == 1
            stats = {row["shard"]: row for row in sharded.queue_stats()}
            assert stats[0]["tokens_applied"] == 2
            assert stats[0]["batches_failed"] == 0
            assert stats[1]["tokens_applied"] == 0
            assert stats[1]["batches_failed"] == 1
            with pytest.raises(RuntimeError, match="shard 1.*dropped"):
                sharded.flush()
            sharded.flush()

    def test_full_fanout_counts_every_part(self, encode):
        with ShardedSummarizer(ExactCounter, num_shards=4) as sharded:
            sharded.ingest(encode([f"tok{i}" for i in range(100)]))
            sharded.flush()
            assert sharded.tokens_enqueued == 100
            applied = sum(
                row["tokens_applied"] for row in sharded.queue_stats()
            )
            assert applied == 100


class TestBackendResolution:
    def test_default_is_thread(self):
        assert ShardedSummarizer(ExactCounter, num_shards=1).backend_name == "thread"

    def test_service_ignores_backend_env(self, monkeypatch):
        # No setting outside the code may put the service on processes.
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "process")
        service = HeavyHittersService(ServiceConfig())
        try:
            assert service.sharded.backend_name == "thread"
        finally:
            service.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown shard backend"):
            ShardedSummarizer(ExactCounter, num_shards=1, backend="greenlet")
        with pytest.raises(ValueError, match="unknown shard backend"):
            ShardedSummarizer(ExactCounter, num_shards=1, backend=None)

    def test_backend_name_property(self):
        with ShardedSummarizer(ExactCounter, num_shards=1) as sharded:
            assert sharded.backend_name == "thread"


class TestInjectShardError:
    """The backend-neutral fault hook both backends honour."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_injected_error_surfaces_once(self, backend, encode):
        with ShardedSummarizer(
            ExactCounter, num_shards=2, backend=backend
        ) as sharded:
            sharded.ingest(encode(["a", "b"]))
            sharded.flush()
            sharded.inject_shard_error(1, RuntimeError("poisoned batch"))
            with pytest.raises(RuntimeError, match="shard 1"):
                sharded.flush()
            # Error cleared after surfacing: the service recovers.
            sharded.ingest(encode(["c"]))
            sharded.flush()


class TestProcessBackend:
    def test_counts_match_thread_backend_exactly(self):
        stream = [f"tok{i % 61}" for i in range(4000)]

        def run(backend):
            encode = TokenCodec().encode_chunk
            with ShardedSummarizer(
                lambda: SpaceSaving(num_counters=128),
                num_shards=4,
                backend=backend,
            ) as sharded:
                for start in range(0, len(stream), 700):
                    sharded.ingest(encode(stream[start : start + 700]))
                sharded.flush()
                return [
                    serialization.dumps(summary)
                    for summary in sharded.snapshot_summaries()
                ]

        assert run("thread") == run("process")

    def test_encoded_chunk_and_record_paths(self):
        from repro.service.wal import encode_chunk_record

        codec = TokenCodec()
        chunk = codec.encode_chunk(["a", "b", "a", "c"])
        record = encode_chunk_record(chunk)
        with ShardedSummarizer(
            ExactCounter, num_shards=2, backend="process"
        ) as sharded:
            # Pre-framed record (the server's WAL path) and plain chunk
            # (no record) both land the same tokens.
            sharded.ingest(chunk, record=bytes(record))
            sharded.ingest(chunk)
            sharded.flush()
            assert sharded.stream_length == 8.0
            merged = collections.Counter()
            for summary in sharded.snapshot_summaries():
                for item, count in summary.counters().items():
                    merged[item] += count
            assert merged == {"a": 4.0, "b": 2.0, "c": 2.0}

    def test_weighted_and_traced_ingest(self, encode):
        from repro.service.tracing import Trace, TraceContext

        trace = Trace(op="ingest", context=TraceContext.new(), forced=True)
        with ShardedSummarizer(
            ExactCounter, num_shards=2, backend="process"
        ) as sharded:
            sharded.ingest(encode(["a", "b"], [2.0, 3.0]), trace=trace)
            sharded.flush()
            assert sharded.stream_length == 5.0
        spans = [s for s in trace.as_dict()["spans"] if s["name"] == "shard_apply"]
        assert spans and sum(s["tokens"] for s in spans) == 2

    def test_worker_error_reported_and_cleared(self, encode):
        class ExplodesOnce(ExactCounter):
            def update_batch(self, items, weights=None):
                if "bad" in items:
                    raise RuntimeError("boom")
                super().update_batch(items, weights)

        with ShardedSummarizer(
            ExplodesOnce, num_shards=1, backend="process"
        ) as sharded:
            sharded.ingest(encode(["bad"]))
            sharded.ingest(encode(["survivor"]))
            with pytest.raises(RuntimeError, match="dropped.*boom"):
                sharded.flush()
            sharded.ingest(encode(["good", "good"]))
            sharded.flush()
            assert sharded.stream_length == 3.0

    def test_shard_payloads_round_trip(self, encode):
        with ShardedSummarizer(
            lambda: SpaceSaving(num_counters=64),
            num_shards=2,
            backend="process",
        ) as sharded:
            sharded.ingest(encode(["a", "b", "a"]))
            sharded.flush()
            payloads = sharded.shard_payloads()
            restored = [serialization.load(p) for p in payloads]
            assert sum(est.stream_length for est in restored) == 3.0

    def test_unregistered_estimator_snapshots_via_pickle(self, encode):
        # Classes outside the serialisation registry (e.g. sketches in a
        # differential test) still answer snapshot requests -- the worker
        # falls back to pickle -- while checkpoints must refuse.
        with ShardedSummarizer(
            UnregisteredCounter, num_shards=1, backend="process"
        ) as sharded:
            sharded.ingest(encode(["a", "a", "b"]))
            sharded.flush()
            (copy,) = sharded.snapshot_summaries()
            assert isinstance(copy, UnregisteredCounter)
            assert copy.counters() == {"a": 2.0, "b": 1.0}
            with pytest.raises(RuntimeError, match="serialisation"):
                sharded.shard_payloads()

    def test_restore_shards_before_start(self, encode):
        primed = ExactCounter()
        primed.update("seeded", 7.0)
        sharded = ShardedSummarizer(
            ExactCounter, num_shards=1, backend="process"
        )
        sharded.restore_shards([primed])
        sharded.start()
        try:
            sharded.ingest(encode(["x"]))
            sharded.flush()
            assert sharded.stream_length == 8.0
        finally:
            sharded.close()

    def test_queue_stats_supervisor_columns(self, encode):
        with ShardedSummarizer(
            ExactCounter, num_shards=2, backend="process"
        ) as sharded:
            sharded.ingest(encode(["a", "b"]))
            sharded.flush()
            for row in sharded.queue_stats():
                assert row["alive"] == 1.0
                assert row["restarts"] == 0
                assert row["rss_bytes"] > 0

    def test_concurrent_producers(self):
        stream = [f"tok{i % 31}" for i in range(2000)]
        with ShardedSummarizer(
            ExactCounter, num_shards=2, queue_depth=4, backend="process"
        ) as sharded:

            def produce(tokens):
                encode = TokenCodec().encode_chunk  # interning is not thread-safe
                for start in range(0, len(tokens), 250):
                    sharded.ingest(encode(tokens[start : start + 250]))

            threads = [
                threading.Thread(target=produce, args=(stream[0::2],)),
                threading.Thread(target=produce, args=(stream[1::2],)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            sharded.flush()
            assert sharded.stream_length == float(len(stream))
            assert sharded.tokens_enqueued == len(stream)


def _wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestProcessSupervision:
    def test_sigkill_flips_readiness_then_restarts(self, encode):
        with ShardedSummarizer(
            ExactCounter, num_shards=2, backend="process"
        ) as sharded:
            sharded.ingest(encode(["a", "b", "c"]))
            sharded.flush()
            slot = sharded._backend.slots[0]
            generation = slot.generation
            os.kill(slot.pid(), signal.SIGKILL)
            # The supervisor restarts the worker (a new generation) and
            # readiness returns; the replacement starts empty.
            assert _wait_for(
                lambda: slot.generation > generation and sharded.workers_alive()
            )
            stats = {row["shard"]: row for row in sharded.queue_stats()}
            assert stats[0]["restarts"] == 1
            assert stats[1]["restarts"] == 0
            # The death was recorded and surfaces exactly once.
            with pytest.raises(RuntimeError, match="exited unexpectedly"):
                for _ in range(200):
                    sharded.ingest(encode(["x"]))
                    sharded.flush()
            sharded.ingest(encode(["y"]))
            sharded.flush()

    def test_no_workers_leak_past_interpreter_exit(self, tmp_path):
        """An abandoned (never close()d) backend must not fork workers at
        interpreter exit.

        multiprocessing's atexit reaper terminates the daemon workers; the
        reader threads see those deaths and -- pre-fix -- the supervisor
        forked replacements *after* the reaper had already run, leaking
        live processes past exit.  The script reproduces that order
        deterministically: run the atexit chain by hand (ours first, then
        multiprocessing's, same LIFO order as a real exit), give the
        restart threads a window to fork, then hard-exit.
        """
        import subprocess
        import sys

        # The script reports worker pids through a file, not stdout: a
        # leaked worker inherits the parent's stdout pipe and holds it
        # open forever, which would hang capture_output here -- turning a
        # leak regression into a 60s timeout instead of a pid list.
        script = tmp_path / "abandon.py"
        pid_file = tmp_path / "pids.txt"
        script.write_text(
            f"""
import atexit, os, time
from repro.engine.codec import TokenCodec
from repro.service.sharding import ShardedSummarizer
from repro.streams.exact import ExactCounter

sharded = ShardedSummarizer(ExactCounter, num_shards=4, backend="process")
sharded.start()
sharded.ingest(TokenCodec().encode_chunk(["a", "b", "c"]))
sharded.flush()
backend = sharded._backend
atexit._run_exitfuncs()      # our guard, then multiprocessing's reaper
time.sleep(1.0)              # the pre-fix restart window
pids = [slot.process.pid for slot in backend.slots if slot.process is not None]
with open({str(pid_file)!r}, "w") as fh:
    fh.write(" ".join(str(pid) for pid in pids))
os._exit(0)                  # skip further cleanup: survivors stay leaked
""",
            encoding="utf-8",
        )
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH", "")])
        )
        subprocess.run(
            [sys.executable, str(script)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
            env=env,
            check=True,
        )
        pids = [int(p) for p in pid_file.read_text(encoding="utf-8").split()]
        assert pids
        time.sleep(0.5)
        leaked = [pid for pid in pids if os.path.isdir(f"/proc/{pid}")]
        for pid in leaked:  # clean up before failing the assertion
            os.kill(pid, signal.SIGKILL)
        assert not leaked, f"worker processes survived interpreter exit: {leaked}"
