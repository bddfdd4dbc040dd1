"""Tests for the write-ahead log and crash recovery (repro.service.wal/.recovery)."""

import json
import threading
import time

import pytest

from repro import serialization
from repro.algorithms.space_saving import SpaceSaving
from repro.core.merging import DisjointUnion
from repro.engine.codec import TokenCodec
from repro.service import (
    HeavyHittersService,
    RecoveryError,
    ServiceConfig,
    SnapshotManager,
    WalError,
    WalPosition,
    WriteAheadLog,
    iter_wal,
    recover,
    resume_service,
)
from repro.service.recovery import compact
from repro.service.wal import (
    FRAME_CHUNK,
    SEGMENT_MAGIC,
    WalScanStats,
    decode_chunk_record,
    encode_frame,
    list_checkpoints,
    list_segments,
    read_manifest,
    segment_path,
    write_manifest,
)
from repro.streams.batched import iter_chunks
from repro.streams.exact import ExactCounter
from repro.streams.generators import zipf_stream


def _chunks(items, size=1000, codec=None):
    codec = TokenCodec() if codec is None else codec
    return [codec.encode_chunk(chunk) for chunk in iter_chunks(items, size)]


class TestWriteAheadLog:
    def test_append_and_replay_round_trip(self, tmp_path):
        stream = zipf_stream(num_items=200, alpha=1.2, total=5_000, seed=7)
        chunks = _chunks(stream.items)
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            positions = [wal.append_chunk(chunk) for chunk in chunks]
        assert positions == sorted(positions)
        codec = TokenCodec()
        replayed = [
            decode_chunk_record(record, codec) for record in iter_wal(tmp_path)
        ]
        assert len(replayed) == len(chunks)
        original = [item for chunk in chunks for item in chunk.items()]
        recovered = [item for chunk in replayed for item in chunk.items()]
        assert recovered == original

    def test_replay_resumes_after_position(self, tmp_path):
        codec = TokenCodec()
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append_chunk(codec.encode_chunk(["early"] * 3))
            cut = wal.tail()
            wal.append_chunk(codec.encode_chunk(["late"] * 2))
        replayed = [
            decode_chunk_record(record).items()
            for record in iter_wal(tmp_path, start=cut)
        ]
        assert replayed == [["late", "late"]]

    def test_size_based_rotation(self, tmp_path):
        codec = TokenCodec()
        with WriteAheadLog(tmp_path, fsync="off", max_segment_bytes=256) as wal:
            for index in range(10):
                wal.append_chunk(codec.encode_chunk([f"item-{index}"] * 5))
            assert wal.rotations >= 2
        segments = list_segments(tmp_path)
        assert len(segments) >= 3
        stats = WalScanStats()
        assert len(list(iter_wal(tmp_path, stats=stats))) == 10
        assert stats.segments_scanned == len(segments)
        assert not stats.torn_tail

    def test_manual_rotation_and_weighted_chunks(self, tmp_path):
        codec = TokenCodec()
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append_chunk(codec.encode_chunk(["a", "b"], [2.0, 3.0]))
            first = wal.rotate()
            wal.append_chunk(codec.encode_chunk(["c"], [1.5]))
            assert wal.tail().segment == first
        chunks = [decode_chunk_record(record) for record in iter_wal(tmp_path)]
        assert chunks[0].weights.tolist() == [2.0, 3.0]
        assert chunks[1].items() == ["c"]

    def test_reopen_never_appends_to_existing_segment(self, tmp_path):
        codec = TokenCodec()
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append_chunk(codec.encode_chunk(["one"]))
            first_segment = wal.tail().segment
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.tail().segment == first_segment + 1
            wal.append_chunk(codec.encode_chunk(["two"]))
        items = [
            decode_chunk_record(record).items() for record in iter_wal(tmp_path)
        ]
        assert items == [["one"], ["two"]]

    def test_fsync_policies_and_validation(self, tmp_path):
        for policy in ("always", "interval", "off"):
            wal = WriteAheadLog(tmp_path / policy, fsync=policy)
            wal.append_chunk(TokenCodec().encode_chunk(["x"]))
            wal.sync()
            wal.close()
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path / "bad", fsync="sometimes")
        with pytest.raises(ValueError, match="fsync_interval"):
            WriteAheadLog(tmp_path / "bad", fsync_interval=0.0)
        with pytest.raises(ValueError, match="max_segment_bytes"):
            WriteAheadLog(tmp_path / "bad", max_segment_bytes=4)

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append_chunk(TokenCodec().encode_chunk(["x"]))

    def test_advance_frames_round_trip(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append_advance(2)
            with pytest.raises(ValueError):
                wal.append_advance(0)
        records = list(iter_wal(tmp_path))
        assert [record.frame_type for record in records] == [2]


class TestTornTails:
    def _write_frames(self, tmp_path, count=3):
        codec = TokenCodec()
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            for index in range(count):
                wal.append_chunk(codec.encode_chunk([f"tok-{index}"] * (index + 1)))
        return segment_path(tmp_path, 1)

    @pytest.mark.parametrize("drop", [1, 3, 7, 11])
    def test_torn_final_frame_is_truncated(self, tmp_path, drop):
        path = self._write_frames(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-drop])
        stats = WalScanStats()
        records = list(iter_wal(tmp_path, stats=stats))
        assert len(records) == 2  # the torn third frame is dropped
        assert stats.torn_tail
        assert stats.truncated_bytes > 0

    def test_garbage_tail_is_truncated(self, tmp_path):
        path = self._write_frames(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00garbage-from-a-crash")
        stats = WalScanStats()
        assert len(list(iter_wal(tmp_path, stats=stats))) == 3
        assert stats.torn_tail

    def test_crc_mismatch_in_tail_is_truncated(self, tmp_path):
        path = self._write_frames(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the final frame
        path.write_bytes(bytes(data))
        stats = WalScanStats()
        assert len(list(iter_wal(tmp_path, stats=stats))) == 2
        assert stats.torn_tail

    def test_corruption_before_the_tail_is_fatal(self, tmp_path):
        self._write_frames(tmp_path)
        # A later segment exists, so damage in segment 1 cannot be a torn
        # tail (the corruption happens *after* the reopen, as bit rot
        # would -- reopening a corrupt final segment refuses up front,
        # covered by test_reopen_refuses_to_repair_real_corruption).
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append_chunk(TokenCodec().encode_chunk(["later"]))
        first = segment_path(tmp_path, 1)
        data = bytearray(first.read_bytes())
        data[len(SEGMENT_MAGIC) + 6] ^= 0xFF  # corrupt the first frame
        first.write_bytes(bytes(data))
        with pytest.raises(WalError, match="mid-log"):
            list(iter_wal(tmp_path))

    def test_corrupt_frame_followed_by_valid_frames_is_fatal(self, tmp_path):
        """A crash tears only the *end* of the log: damage with valid
        frames after it is real corruption, not a torn tail, and must not
        silently drop the acked frames behind it."""
        path = self._write_frames(tmp_path)
        data = bytearray(path.read_bytes())
        # Flip a byte in the FIRST frame's payload; frames 2 and 3 stay valid.
        data[len(SEGMENT_MAGIC) + 12] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WalError, match="followed by valid"):
            list(iter_wal(tmp_path))

    def test_reopen_repairs_torn_tail_on_disk(self, tmp_path):
        """The second-crash scenario: a torn tail is tolerated while its
        segment is last, but reopening the log truncates it on disk --
        otherwise the damage would sit mid-log and brick every recovery
        after the next restart."""
        path = self._write_frames(tmp_path)
        size_before = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\xa5\x01\x99\x99torn")  # crash mid-append
        codec = TokenCodec()
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.repaired_bytes == 8
            assert path.stat().st_size == size_before
            wal.append_chunk(codec.encode_chunk(["after-restart"]))
        # Two generations of segments, zero torn bytes left anywhere: the
        # scan that previously raised "mid-log" now sees a clean log.
        stats = WalScanStats()
        records = list(iter_wal(tmp_path, stats=stats))
        assert len(records) == 4
        assert not stats.torn_tail
        # And it stays recoverable across arbitrarily many more reopens.
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.repaired_bytes == 0
        assert len(list(iter_wal(tmp_path))) == 4

    def test_reopen_refuses_to_repair_real_corruption(self, tmp_path):
        path = self._write_frames(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(SEGMENT_MAGIC) + 12] ^= 0xFF  # first frame, valid ones follow
        path.write_bytes(bytes(data))
        with pytest.raises(WalError, match="followed by valid"):
            WriteAheadLog(tmp_path, fsync="off")

    def test_interval_flusher_syncs_idle_log(self, tmp_path):
        """fsync=interval bounds the loss window by wall clock: data
        appended once and never followed by more traffic still reaches
        disk within about one interval."""
        wal = WriteAheadLog(tmp_path, fsync="interval", fsync_interval=0.05)
        try:
            wal.append_chunk(TokenCodec().encode_chunk(["idle"]))
            deadline = time.monotonic() + 2.0
            while wal._dirty and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not wal._dirty, "background flusher never fsynced"
        finally:
            wal.close()

    def test_not_a_wal_segment_is_fatal(self, tmp_path):
        segment_path(tmp_path, 1).write_bytes(b"definitely not a wal segment")
        with pytest.raises(WalError, match="magic"):
            list(iter_wal(tmp_path))

    def test_missing_directory_is_fatal(self, tmp_path):
        with pytest.raises(WalError, match="no such WAL directory"):
            list(iter_wal(tmp_path / "nope"))

    def test_valid_crc_with_undecodable_payload_is_fatal(self, tmp_path):
        path = tmp_path / "wal-00000001.log"
        path.write_bytes(SEGMENT_MAGIC + encode_frame(FRAME_CHUNK, b"not json"))
        record = next(iter(iter_wal(tmp_path)))
        with pytest.raises(WalError, match="undecodable chunk frame"):
            decode_chunk_record(record)


class TestCheckpointRecovery:
    def _service(self, tmp_path, **overrides):
        config = ServiceConfig(
            num_counters=256,
            num_shards=4,
            k=8,
            wal_dir=str(tmp_path / "wal"),
            fsync="off",
            **overrides,
        )
        return config, HeavyHittersService(config).start()

    def test_pure_replay_matches_crashed_state_exactly(self, tmp_path, zipf_medium):
        """Replaying the log from empty rebuilds bit-identical shard state:
        the same chunks flow through the same partition + update_batch path."""
        config, service = self._service(tmp_path)
        for chunk in iter_chunks(zipf_medium.items, 2_048):
            assert service.handle({"op": "ingest", "items": chunk})["ok"]
        service.sharded.flush()
        live_payloads = service.sharded.shard_payloads()
        # Simulate a crash: abandon the service without close().
        service.wal.sync()
        result = recover(tmp_path / "wal")
        recovered_payloads = [serialization.dump(est) for est in result.estimators]
        assert recovered_payloads == live_payloads
        assert result.stream_length == float(len(zipf_medium.items))
        check = result.merge.check(
            {item: float(count) for item, count in zipf_medium.frequencies().items()}
        )
        assert check.holds

    def test_checkpoint_plus_replay_preserves_estimates(self, tmp_path, zipf_medium):
        """With a mid-stream checkpoint the recovered summaries keep every
        estimate's guarantee (the serialisation round trip rebuilds internal
        acceleration structures, so only bit-identity of *state* is waived)."""
        config, service = self._service(tmp_path)
        chunks = list(iter_chunks(zipf_medium.items, 2_048))
        for index, chunk in enumerate(chunks):
            assert service.handle({"op": "ingest", "items": chunk})["ok"]
            if index == len(chunks) // 2:
                service.handle({"op": "checkpoint"})
        service.sharded.flush()
        service.wal.sync()
        result = recover(tmp_path / "wal")
        assert result.checkpoint_version == 1
        assert result.resumed_from is not None
        assert result.chunks_replayed == len(chunks) - (len(chunks) // 2 + 1)
        # Zero loss: every token is either in the checkpoint or replayed.
        assert result.stream_length == float(len(zipf_medium.items))
        check = result.merge.check(
            {item: float(count) for item, count in zipf_medium.frequencies().items()}
        )
        assert check.holds

    def test_merge_is_built_on_first_read_only(self, tmp_path, monkeypatch):
        """A restart never reads the union, so recovery does not build it."""
        import repro.service.recovery as recovery_module

        config, service = self._service(tmp_path)
        service.handle({"op": "ingest", "items": ["a"] * 30 + ["b"] * 12})
        service.wal.sync()
        built = []
        merge = recovery_module.merge_summaries

        def counting_merge(*args, **kwargs):
            built.append(1)
            return merge(*args, **kwargs)

        monkeypatch.setattr(recovery_module, "merge_summaries", counting_merge)
        revived, resumed = resume_service(config)
        assert resumed is not None and built == []
        result = recover(tmp_path / "wal")
        assert built == []
        assert result.merge is result.merge
        assert built == [1]
        assert result.estimator.estimate("a") == 30.0
        constants = result.merge.merged_constants
        assert (constants.a, constants.b) == (1.0, 1.0)
        revived.close()
        service.close()

    def test_top_k_merge_mode_in_an_earlier_manifest_is_ignored(self, tmp_path):
        """Recovery answers from the union of the shards whatever merge
        mode an earlier build's manifest names, and keeps (1, 1)."""
        config, service = self._service(tmp_path)
        stream = zipf_stream(num_items=2_000, alpha=0.8, total=20_000, seed=5)
        for chunk in iter_chunks([int(v) for v in stream.items], 2_048):
            service.handle({"op": "ingest", "items": chunk})
        service.wal.sync()
        service.close()
        wal_dir = tmp_path / "wal"
        manifest = read_manifest(wal_dir)
        assert "merge_mode" not in manifest
        manifest.pop("format")
        write_manifest(wal_dir, {**manifest, "merge_mode": "top_k"})
        result = recover(wal_dir)
        assert isinstance(result.estimator, DisjointUnion)
        assert list(result.estimator.parts) == result.estimators
        constants = result.merge.merged_constants
        assert (constants.a, constants.b) == (1.0, 1.0)
        frequencies = {item: float(count) for item, count in stream.frequencies().items()}
        check = result.merge.check(frequencies)
        assert check.holds, check.description
        revived, resumed = resume_service(config)
        assert resumed is not None
        assert resumed.tokens_replayed == len(stream.items)
        revived.close()

    def test_recovery_without_checkpoint_replays_everything(self, tmp_path):
        config, service = self._service(tmp_path)
        service.handle({"op": "ingest", "items": ["a"] * 30 + ["b"] * 12})
        service.handle({"op": "ingest", "items": ["a"] * 5, "weights": [2.0] * 5})
        service.wal.sync()
        result = recover(tmp_path / "wal")
        assert result.checkpoint_version == 0
        assert result.chunks_replayed == 2
        assert result.tokens_replayed == 47
        assert result.stream_length == 52.0
        assert result.estimator.estimate("a") >= 40.0
        service.close()

    def test_checkpoint_prunes_covered_segments(self, tmp_path):
        config, service = self._service(tmp_path, wal_segment_bytes=256)
        for index in range(12):
            service.handle({"op": "ingest", "items": [f"item-{index}"] * 20})
        before = len(list_segments(service.wal.directory))
        assert before > 2
        response = service.handle({"op": "checkpoint"})
        assert response["ok"]
        assert response["pruned_segments"] > 0
        assert len(list_segments(service.wal.directory)) < before
        # Everything is still recoverable after pruning.
        result = recover(tmp_path / "wal")
        assert result.stream_length == 240.0
        service.close()

    def test_resume_service_continues_a_crashed_log(self, tmp_path):
        config, service = self._service(tmp_path)
        service.handle({"op": "ingest", "items": ["x"] * 10})
        service.wal.sync()  # crash without close()
        revived, recovered = resume_service(config)
        assert recovered is not None and recovered.tokens_replayed == 10
        revived.start()
        revived.handle({"op": "ingest", "items": ["y"] * 4})
        revived.sharded.flush()
        assert revived.sharded.stream_length == 14.0
        revived.close()
        service.close()
        # A second recovery sees both generations of appends.
        result = recover(tmp_path / "wal")
        assert result.stream_length == 14.0

    def test_recovery_restores_windows(self, tmp_path):
        config, service = self._service(tmp_path, window_buckets=3)
        service.handle({"op": "ingest", "items": ["old"] * 6})
        service.handle({"op": "advance-window"})
        service.handle({"op": "checkpoint"})
        service.handle({"op": "ingest", "items": ["new"] * 4})
        service.handle({"op": "advance-window", "steps": 2})
        service.wal.sync()
        result = recover(tmp_path / "wal")
        assert result.window is not None
        assert result.advances_replayed == 1  # post-checkpoint advance only
        assert result.window.current_bucket == 3
        answer = result.window.query(window=3)
        assert answer.estimate("new") == 4.0
        assert answer.estimate("old") == 0.0  # bucket 0 expired from the ring
        service.close()

    def test_recovery_replays_a_huge_advance_in_ring_time(self, tmp_path):
        config, service = self._service(tmp_path, window_buckets=3)
        service.handle({"op": "ingest", "items": ["old"] * 6})
        response = service.handle({"op": "advance-window", "steps": 10**6})
        assert response == {"ok": True, "bucket": 10**6}
        service.close()
        built = []

        def counting():
            built.append(1)
            return SpaceSaving(num_counters=256)

        result = recover(tmp_path / "wal", make_estimator=counting)
        # One summary per shard, the window's first bucket, then at most
        # one bucket per ring slot for the whole advance.
        assert len(built) <= config.num_shards + 1 + 3
        assert result.advances_replayed == 1
        assert result.window.current_bucket == 10**6
        assert result.window.query().estimate("old") == 0.0

    def test_recover_torn_tail_keeps_intact_frames(self, tmp_path):
        config, service = self._service(tmp_path)
        service.handle({"op": "ingest", "items": ["kept"] * 8})
        service.wal.sync()
        service.close()
        segment = list_segments(tmp_path / "wal")[-1][1]
        with open(segment, "ab") as handle:
            handle.write(b"\xa5\x01\x99")  # torn frame header from a crash
        result = recover(tmp_path / "wal")
        assert result.scan.torn_tail
        assert result.estimator.estimate("kept") == 8.0

    def test_crash_recover_crash_recover_cycle(self, tmp_path):
        """Two crash/restart generations: the first restart repairs the
        torn tail on disk, so the second recovery replays cleanly instead
        of failing on mid-log damage."""
        config, service = self._service(tmp_path)
        service.handle({"op": "ingest", "items": ["gen-1"] * 20})
        service.wal.sync()
        segment = list_segments(tmp_path / "wal")[-1][1]
        with open(segment, "ab") as handle:
            handle.write(b"\xa5\x01\xff\xffmid-append crash")
        revived, recovered = resume_service(config)
        assert recovered is not None
        assert recovered.scan.torn_tail
        assert revived.wal.repaired_bytes > 0
        revived.start()
        revived.handle({"op": "ingest", "items": ["gen-2"] * 5})
        revived.wal.sync()  # second crash: abandon without close()
        second = recover(tmp_path / "wal")
        assert not second.scan.torn_tail
        assert second.estimator.estimate("gen-1") == 20.0
        assert second.estimator.estimate("gen-2") == 5.0
        revived.close()
        service.close()

    def test_shard_failure_surfaces_before_the_wal_append(self, tmp_path):
        """A pending shard error must fail the request *before* its chunk
        is durably logged -- otherwise an erroring producer that retries
        would double-count after recovery."""
        config, service = self._service(tmp_path)
        service.handle({"op": "ingest", "items": ["ok"] * 3})
        service.sharded.flush()
        service.sharded.inject_shard_error(0, RuntimeError("poisoned batch"))
        frames_before = service.wal.frames_appended
        response = service.handle({"op": "ingest", "items": ["rejected"] * 4})
        assert not response["ok"]
        assert service.wal.frames_appended == frames_before  # nothing logged
        # The error is cleared by being surfaced; the retry lands once.
        retry = service.handle({"op": "ingest", "items": ["rejected"] * 4})
        assert retry["ok"]
        service.close()
        result = recover(tmp_path / "wal")
        assert result.estimator.estimate("rejected") == 4.0
        service.close()

    def test_compact_checkpoints_and_prunes(self, tmp_path):
        config, service = self._service(tmp_path, wal_segment_bytes=512)
        for index in range(8):
            service.handle({"op": "ingest", "items": [f"k-{index}"] * 10})
        service.wal.sync()
        service.close()
        result = recover(tmp_path / "wal")
        path = compact(tmp_path / "wal", result)
        assert path.exists()
        assert list_checkpoints(tmp_path / "wal")[-1][0] == 1
        compacted = recover(tmp_path / "wal")
        assert compacted.chunks_replayed == 0
        assert compacted.stream_length == 80.0

    def test_recover_rejects_empty_and_missing_directories(self, tmp_path):
        with pytest.raises(RecoveryError, match="no such WAL directory"):
            recover(tmp_path / "missing")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(RecoveryError, match="no WAL segments"):
            recover(empty)

    def test_recover_rejects_shard_count_mismatch(self, tmp_path):
        config, service = self._service(tmp_path)
        service.handle({"op": "ingest", "items": ["a"] * 4})
        service.handle({"op": "checkpoint"})
        service.close()
        with pytest.raises(RecoveryError, match="shard"):
            recover(
                tmp_path / "wal",
                make_estimator=config.make_estimator,
                num_shards=2,
            )

    def test_recover_rejects_k_below_one(self, tmp_path):
        """k < 1 is an error, from the argument or from the manifest; it
        used to be clamped to 1 and reported as a k=1 guarantee."""
        config, service = self._service(tmp_path)
        service.handle({"op": "ingest", "items": ["a"] * 4})
        service.close()
        for k in (0, -3):
            with pytest.raises(RecoveryError, match="k must be >= 1, got"):
                recover(tmp_path / "wal", k=k)
        manifest = read_manifest(tmp_path / "wal")
        write_manifest(tmp_path / "wal", {**manifest, "k": 0})
        with pytest.raises(RecoveryError, match="k must be >= 1, got 0"):
            recover(tmp_path / "wal")
        assert recover(tmp_path / "wal", k=1).k == 1

    def test_corrupt_checkpoint_is_fatal(self, tmp_path):
        config, service = self._service(tmp_path)
        service.handle({"op": "ingest", "items": ["a"] * 4})
        service.handle({"op": "checkpoint"})
        service.close()
        version, path = list_checkpoints(tmp_path / "wal")[-1]
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(WalError, match="corrupt checkpoint"):
            recover(tmp_path / "wal")

    def test_manifest_round_trip_and_corruption(self, tmp_path):
        write_manifest(tmp_path, {"algorithm": "frequent", "num_shards": 2})
        manifest = read_manifest(tmp_path)
        assert manifest["algorithm"] == "frequent"
        (tmp_path / "wal-config.json").write_text("[]", encoding="utf-8")
        with pytest.raises(WalError, match="wal-config"):
            read_manifest(tmp_path)

    def test_recovery_with_exact_counter_is_lossless(self, tmp_path):
        """Differential check: an exact recovery loses nothing anywhere."""
        wal_dir = tmp_path / "wal"
        stream = zipf_stream(num_items=500, alpha=1.1, total=20_000, seed=31)
        codec = TokenCodec()
        with WriteAheadLog(wal_dir, fsync="off") as wal:
            for chunk in iter_chunks(stream.items, 4_096):
                wal.append_chunk(codec.encode_chunk(chunk))
        result = recover(wal_dir, make_estimator=ExactCounter, num_shards=3, k=5)
        assert result.estimator.counters() == {
            item: float(count) for item, count in stream.frequencies().items()
        }


class TestOwnerShardFiles:
    """Snapshot files and recovery hold the union of the shards."""

    def _run(self, tmp_path):
        """Ingest into a WAL-backed service that persists every snapshot;
        returns the persisted snapshot file and the WAL directory."""
        config = ServiceConfig(
            num_counters=64,
            num_shards=3,
            k=4,
            snapshot_dir=str(tmp_path / "snapshots"),
            wal_dir=str(tmp_path / "wal"),
            fsync="off",
        )
        stream = zipf_stream(num_items=400, alpha=1.1, total=6_000, seed=3)
        with HeavyHittersService(config) as service:
            for chunk in iter_chunks([int(v) for v in stream.items], 1_024):
                assert service.handle({"op": "ingest", "items": chunk})["ok"]
            meta = service.handle({"op": "snapshot", "drain": True})
            service.wal.sync()
        return meta["path"], tmp_path / "wal"

    def test_no_theorem_11_replay_on_the_shard_path(self, tmp_path, monkeypatch, capsys):
        """Persisting and reloading a snapshot, recovery's union and
        ``repro recover --output`` never replay counters into a fresh
        summary: the shards are key-disjoint, so nothing is merged."""
        from repro.cli import main
        from repro.core import merging

        replays = []
        replay = merging._replay_sparse_vector

        def counting_replay(*args, **kwargs):
            replays.append(1)
            return replay(*args, **kwargs)

        monkeypatch.setattr(merging, "_replay_sparse_vector", counting_replay)
        snapshot_path, wal_dir = self._run(tmp_path)
        SnapshotManager.load(snapshot_path)
        result = recover(wal_dir)
        assert isinstance(result.merge.estimator, DisjointUnion)
        output = tmp_path / "recovered.json"
        assert main(["recover", "--wal-dir", str(wal_dir), "--output", str(output)]) == 0
        assert "A=1, B=1" in capsys.readouterr().out
        assert replays == []
        # The hook is live: a Theorem 11 merge of SpaceSaving summaries
        # replays (array shards merge by their own kernel instead).
        parts = [SpaceSaving(64) for _ in range(2)]
        for part in parts:
            part.update_many(["x", "y", "x"])
        merging.merge_summaries(parts, k=4, make_estimator=lambda: SpaceSaving(64))
        assert replays

    def test_recover_output_and_repro_merge(self, tmp_path, capsys):
        """``recover --output`` writes the union the recovery answers from,
        and ``repro merge`` still takes snapshot and recovery files,
        merging their shard parts at Theorem 11's (3A, A+B)."""
        from repro.cli import main

        snapshot_path, wal_dir = self._run(tmp_path)
        output = tmp_path / "recovered.json"
        assert main(["recover", "--wal-dir", str(wal_dir), "--output", str(output)]) == 0
        written = serialization.loads(output.read_text(encoding="utf-8"))
        recovered = recover(wal_dir).estimator
        assert written.top_k(len(written)) == recovered.top_k(len(recovered))
        assert written.per_item_errors() == recovered.per_item_errors()
        assert written.stream_length == recovered.stream_length
        capsys.readouterr()
        merged_path = tmp_path / "merged.json"
        code = main(
            ["merge", snapshot_path, str(output), "--k", "4", "--output", str(merged_path)]
        )
        assert code == 0
        assert "merged 6 summaries (guarantee constants A=3, B=2)" in capsys.readouterr().out
        merged = serialization.loads(merged_path.read_text(encoding="utf-8"))
        assert merged.stream_length == 2 * recovered.stream_length


class TestConcurrencyStress:
    def test_concurrent_ingest_snapshots_and_checkpoints(self, tmp_path):
        """Hammer ingest from several threads while snapshot refreshes,
        WAL rotation and checkpoints all run concurrently: no deadlock, no
        dropped chunk, monotone snapshot versions."""
        config = ServiceConfig(
            num_counters=128,
            num_shards=4,
            k=5,
            wal_dir=str(tmp_path / "wal"),
            fsync="off",
            wal_segment_bytes=2_048,  # rotate constantly
        )
        service = HeavyHittersService(config).start()
        manager = service.snapshots
        stream = zipf_stream(num_items=300, alpha=1.1, total=24_000, seed=17)
        chunks = list(iter_chunks(stream.items, 500))
        num_producers = 4
        versions = []
        errors = []
        stop = threading.Event()

        def produce(worker_id):
            try:
                for chunk in chunks[worker_id::num_producers]:
                    response = service.handle({"op": "ingest", "items": chunk})
                    assert response["ok"], response
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def snapshotter():
            try:
                while not stop.is_set():
                    versions.append(manager.refresh(drain=True).version)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def checkpointer():
            try:
                while not stop.is_set():
                    service.checkpoint()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        producers = [
            threading.Thread(target=produce, args=(worker_id,))
            for worker_id in range(num_producers)
        ]
        aux = [
            threading.Thread(target=snapshotter),
            threading.Thread(target=checkpointer),
        ]
        for thread in producers + aux:
            thread.start()
        for thread in producers:
            thread.join(timeout=60)
            assert not thread.is_alive(), "producer deadlocked"
        stop.set()
        for thread in aux:
            thread.join(timeout=60)
            assert not thread.is_alive(), "auxiliary thread deadlocked"
        assert not errors, errors
        service.sharded.flush()
        # No chunk was dropped anywhere along ingest -> WAL -> shards.
        assert service.sharded.stream_length == float(len(stream.items))
        assert versions == sorted(versions)
        final = manager.refresh(drain=True)
        assert final.stream_length == float(len(stream.items))
        service.close()
        # And the WAL still recovers the full stream after all that churn.
        result = recover(tmp_path / "wal")
        assert result.stream_length == float(len(stream.items))

    def test_snapshot_manager_standalone_still_works_with_wal(self, tmp_path):
        """refresh(drain=True) + WAL rotation keep working via the sharded
        summarizer API (no server object involved)."""
        sharded = None
        wal = WriteAheadLog(tmp_path, fsync="off", max_segment_bytes=1_024)
        codec = TokenCodec()
        from repro.service import ShardedSummarizer

        with ShardedSummarizer(
            lambda: SpaceSaving(num_counters=64), num_shards=2
        ) as sharded:
            manager = SnapshotManager(sharded, k=4)
            for index in range(20):
                chunk = codec.encode_chunk([f"s-{index % 7}"] * 25)
                wal.append_chunk(chunk)
                sharded.ingest(chunk)
                if index % 5 == 0:
                    manager.refresh(drain=True)
            final = manager.refresh(drain=True)
        wal.close()
        assert final.stream_length == 500.0
        stats = WalScanStats()
        assert len(list(iter_wal(tmp_path, stats=stats))) == 20


class TestWalPosition:
    def test_ordering_and_round_trip(self):
        a = WalPosition(1, 100)
        b = WalPosition(1, 200)
        c = WalPosition(2, 0)
        assert a < b < c
        assert WalPosition.from_dict(b.as_dict()) == b
        with pytest.raises(WalError):
            WalPosition.from_dict({"segment": "x"})

    def test_checkpoint_payload_shape(self, tmp_path):
        config = ServiceConfig(
            num_counters=32, num_shards=2, wal_dir=str(tmp_path), fsync="off"
        )
        service = HeavyHittersService(config).start()
        service.handle({"op": "ingest", "items": ["a", "b", "a"]})
        response = service.handle({"op": "checkpoint"})
        payload = json.loads(
            (tmp_path / f"checkpoint-{response['version']:06d}.json").read_text()
        )
        assert payload["format"] == "repro-wal-checkpoint"
        assert len(payload["shards"]) == 2
        assert payload["wal"] == response["wal"]
        service.close()

    def test_checkpoint_fsyncs_the_wal_position_it_records(self, tmp_path):
        """A durable checkpoint must never reference bytes that are not
        themselves on disk: under fsync=interval the append path leaves
        the log dirty, and checkpoint() has to sync before capturing the
        tail (else an OS crash leaves resume offset > segment size)."""
        config = ServiceConfig(
            num_counters=32,
            num_shards=2,
            wal_dir=str(tmp_path),
            fsync="interval",
            fsync_interval=3600.0,  # the interval never elapses on its own
        )
        service = HeavyHittersService(config).start()
        service.handle({"op": "ingest", "items": ["a", "b", "a"]})
        assert service.wal._dirty  # appended, not yet fsynced
        response = service.handle({"op": "checkpoint"})
        assert response["ok"]
        assert not service.wal._dirty  # everything the position covers is synced
        assert response["wal"]["offset"] <= segment_path(
            tmp_path, response["wal"]["segment"]
        ).stat().st_size
        service.close()

    def test_wide_checkpoint_and_segment_names_stay_visible(self, tmp_path):
        """The :06d/:08d writer formats grow past their padding on very
        long-lived services; the listing patterns must keep matching."""
        from repro.service.wal import checkpoint_path, write_checkpoint

        write_checkpoint(
            tmp_path, version=1_000_000, position=WalPosition(1, 10), shard_payloads=[]
        )
        assert checkpoint_path(tmp_path, 1_000_000).name == "checkpoint-1000000.json"
        assert [version for version, _ in list_checkpoints(tmp_path)] == [1_000_000]
        wide = tmp_path / "wal-100000000.log"
        wide.write_bytes(SEGMENT_MAGIC)
        assert [index for index, _ in list_segments(tmp_path)] == [100_000_000]

    def test_checkpoint_requires_wal(self):
        service = HeavyHittersService(ServiceConfig(num_counters=16)).start()
        with pytest.raises(RuntimeError, match="write-ahead log"):
            service.checkpoint()
        response = service.handle({"op": "checkpoint"})
        assert not response["ok"]
        service.close()
