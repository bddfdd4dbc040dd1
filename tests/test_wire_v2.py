"""Wire format v2: type-tagged tokens, unified admission control, back-compat.

The contract under test (ISSUE 4):

* every token an ingest boundary *accepts* survives ``dump``/``load``
  bit-identically -- str, bytes, bool, int, float (inf included), None and
  arbitrarily nested tuples of those;
* every token the wire format *cannot* carry (NaN, lists, dicts, sets,
  arbitrary objects) is rejected synchronously at every ingest entry point
  -- the old accept-then-crash-at-snapshot sequence is a regression;
* version 1 payloads produced before this PR still load (golden files in
  ``tests/data/``);
* a tuple-keyed stream runs the full service loop end-to-end: tagged NDJSON
  ingest, snapshot, persist, reload, queries, merged ``(3A, A+B)`` bound.
"""

import collections
import gzip
import json
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialization
from repro.algorithms.frequent import Frequent
from repro.algorithms.frequent_real import FrequentR
from repro.algorithms.space_saving import SpaceSaving, SpaceSavingHeap
from repro.algorithms.space_saving_real import SpaceSavingR
from repro.core.bounds import k_tail_bound
from repro.engine.codec import (
    TokenAdmissionError,
    TokenCodec,
    validate_token,
    validate_tokens,
)
from repro.metrics.error import max_error, residual
from repro.service import HeavyHittersService, ServiceConfig, serve
from repro.service.client import ServiceClient
from repro.service.sharding import ShardedSummarizer
from repro.service.snapshots import SnapshotManager
from repro.service.windows import WindowedSummarizer
from repro.streams import batched
from repro.streams.batched import BatchedIngestor
from repro.streams.exact import ExactCounter
from repro.streams.generators import zipf_stream

DATA_DIR = Path(__file__).parent / "data"

#: Tokens wire format v2 carries (and therefore every boundary admits).
CARRIABLE_EXAMPLES = [
    "plain",
    "",
    "s:looks-like-a-key",
    0,
    -17,
    2**70,
    3.25,
    -0.0,
    float("inf"),
    float("-inf"),
    True,
    False,
    None,
    b"",
    b"\x00\xff raw bytes",
    (),
    ("10.0.0.1", "192.168.0.9", 51734, 443, "tcp"),
    ("nested", (1, (b"deep", None)), 2.5),
]

#: Tokens no boundary may accept (each would fail later persistence, or --
#: for NaN -- could never be queried back).
UNCARRIABLE_EXAMPLES = [
    float("nan"),
    ["a", "list"],
    {"a": "dict"},
    {"a", "set"},
    frozenset({"x"}),
    object(),
    ("tuple", ["with", "a", "list"]),
    ("tuple", float("nan")),
]


def uncarriable_id(item):
    """Test id for an uncarriable example: its repr, but fixed for ``object()``
    and sets.

    The repr of a bare ``object()`` embeds its memory address, and a set's
    element order follows the per-process string hash seed, either of which
    would give the test a new name from run to run; this keeps the one name
    the suite has always reported for each case.
    """
    if type(item) is object:
        return "<object object at 0x7efd0e3d3200>"
    if type(item) is set:
        return "{" + ", ".join(sorted(map(repr, item))) + "}"
    return repr(item)

CARRIABLE_TOKENS = st.deferred(
    lambda: st.one_of(
        st.text(max_size=8),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(allow_nan=False),
        st.booleans(),
        st.none(),
        st.binary(max_size=8),
        st.lists(CARRIABLE_TOKENS, max_size=3).map(tuple),
    )
)

ESTIMATOR_FACTORIES = [
    lambda: Frequent(num_counters=24),
    lambda: FrequentR(num_counters=24),
    lambda: SpaceSaving(num_counters=24),
    lambda: SpaceSavingHeap(num_counters=24),
    lambda: SpaceSavingR(num_counters=24),
    lambda: ExactCounter(),
]


# --------------------------------------------------------------------------- #
# Tagged key encoding
# --------------------------------------------------------------------------- #


class TestItemKeys:
    @pytest.mark.parametrize("item", CARRIABLE_EXAMPLES, ids=repr)
    def test_round_trip_bit_identical(self, item):
        decoded = serialization.decode_item_key(serialization.encode_item_key(item))
        assert decoded == item
        assert type(decoded) is type(item)
        # repr equality catches -0.0 vs 0.0 and nested element types that
        # == alone would conflate.
        assert repr(decoded) == repr(item)

    @given(item=CARRIABLE_TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, item):
        key = serialization.encode_item_key(item)
        assert isinstance(key, str)
        decoded = serialization.decode_item_key(key)
        assert repr(decoded) == repr(item)

    def test_ambiguous_tokens_get_distinct_keys(self):
        # "5" vs 5 vs 5.0, True vs 1, b"x" vs "x": the wire keeps the type.
        ambiguous = ["5", 5, 5.0, True, 1, b"x", "x", None, 0, False]
        keys = [serialization.encode_item_key(item) for item in ambiguous]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("item", UNCARRIABLE_EXAMPLES, ids=uncarriable_id)
    def test_uncarriable_rejected(self, item):
        with pytest.raises(serialization.SerializationError):
            serialization.encode_item_key(item)

    @pytest.mark.parametrize(
        "key",
        [
            "no-separator",
            "q:unknown-tag",
            "b:maybe",
            "y:not base64!!",
            "t:not json",
            't:{"not": "a list"}',
            "t:[42]",
            "i:not-an-int",
            "f:not-a-float",
        ],
    )
    def test_malformed_keys_rejected(self, key):
        with pytest.raises(serialization.SerializationError):
            serialization.decode_item_key(key)


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #


class TestAdmissionControl:
    @pytest.mark.parametrize("item", CARRIABLE_EXAMPLES, ids=repr)
    def test_carriable_admitted(self, item):
        assert validate_token(item) is item
        validate_tokens([item, "padding"])
        assert TokenCodec().intern(item) == 0

    @pytest.mark.parametrize("bad", UNCARRIABLE_EXAMPLES, ids=uncarriable_id)
    def test_uncarriable_rejected_everywhere(self, bad):
        with pytest.raises(TokenAdmissionError):
            validate_token(bad)
        with pytest.raises(TokenAdmissionError):
            validate_tokens(["ok", bad])
        with pytest.raises(TokenAdmissionError):
            TokenCodec().encode(["ok", bad])

    def test_nan_float_array_rejected_vectorised(self):
        with pytest.raises(TokenAdmissionError):
            validate_tokens(np.array([1.0, float("nan")]))
        validate_tokens(np.array([1.0, float("inf")]))  # inf is carriable
        validate_tokens(np.arange(4))  # int dtype admissible wholesale

    @pytest.mark.parametrize("bad", UNCARRIABLE_EXAMPLES, ids=uncarriable_id)
    def test_sharded_summarizer_rejects_synchronously(self, bad, encode):
        # Shards take admitted chunks only: the codec refuses the token
        # before any shard sees the chunk.
        with ShardedSummarizer(lambda: SpaceSaving(8), num_shards=2) as sharded:
            with pytest.raises(ValueError):
                sharded.ingest(encode(["ok", bad]))
            with pytest.raises(ValueError):
                sharded.ingest(encode(["ok", bad], [1.0, 2.0]))
            assert sharded.stream_length == 0.0
            # The rejection did not poison the service.
            sharded.ingest(encode(["still", "fine"]))
            sharded.flush()
            assert sharded.stream_length == 2.0

    @pytest.mark.parametrize("bad", UNCARRIABLE_EXAMPLES, ids=uncarriable_id)
    def test_windowed_summarizer_rejects_synchronously(self, bad, encode):
        # Bucket copies travel through the wire format at query time; the
        # window takes admitted chunks only, so the codec refuses the token.
        windowed = WindowedSummarizer(lambda: SpaceSaving(8), num_buckets=2)
        with pytest.raises(ValueError):
            windowed.update_batch(encode(["ok", bad]))
        assert windowed.query().empty
        windowed.update_batch(encode([("still", "fine"), None, b"ok"]))
        assert windowed.query().estimate(("still", "fine")) == 1.0

    @pytest.mark.parametrize("bad", UNCARRIABLE_EXAMPLES, ids=uncarriable_id)
    def test_batched_pipeline_rejects_synchronously(self, bad):
        with pytest.raises(ValueError):
            batched.ingest(SpaceSaving(8), ["ok", bad])
        with pytest.raises(ValueError):
            batched.ingest_weighted(SpaceSaving(8), [("ok", 1.0), (bad, 2.0)])
        with pytest.raises(ValueError):
            BatchedIngestor().feed(SpaceSaving(8), ["ok", bad])
        with pytest.raises(ValueError):
            BatchedIngestor(codec=TokenCodec()).feed(SpaceSaving(8), ["ok", bad])

    def test_accept_then_crash_sequence_is_gone(self, tmp_path, encode):
        """The PR-4 regression: v1 accepted tuples at ingest, then blew up
        inside serialization.dumps when the snapshot was persisted.  v2
        carries tuples end-to-end; what it cannot carry fails at ingest."""
        flows = [("10.0.0.%d" % (i % 7), 443, "tcp") for i in range(300)]
        with ShardedSummarizer(lambda: SpaceSaving(64), num_shards=2) as sharded:
            manager = SnapshotManager(sharded, k=5, directory=tmp_path)
            sharded.ingest(encode(flows))
            snapshot = manager.refresh(drain=True)  # v1 crashed here
            assert snapshot.path is not None and snapshot.path.exists()
            reloaded = SnapshotManager.load(snapshot.path)
            assert reloaded.estimate(("10.0.0.0", 443, "tcp")) > 0.0
            # ...and what is still uncarriable never reaches a shard.
            with pytest.raises(ValueError):
                sharded.ingest(encode([object()]))
            assert manager.refresh(drain=True).stream_length == 300.0


# --------------------------------------------------------------------------- #
# Ingest/persist property: accepted => round trips bit-identically
# --------------------------------------------------------------------------- #


class TestIngestPersistContract:
    @pytest.mark.parametrize("factory", ESTIMATOR_FACTORIES)
    @given(items=st.lists(CARRIABLE_TOKENS, max_size=48))
    @settings(max_examples=25, deadline=None)
    def test_accepted_tokens_survive_dump_load(self, factory, items):
        summary = factory()
        batched.ingest(summary, items, chunk_size=16)  # the ingest boundary
        clone = serialization.load(serialization.dump(summary))
        assert clone.counters() == summary.counters()
        assert clone.per_item_errors() == summary.per_item_errors()
        assert clone.stream_length == summary.stream_length
        for item in summary.counters():
            assert clone.estimate(item) == summary.estimate(item)

    def test_key_ambiguity_cases_exact(self):
        # Python dict semantics collapse ==-equal tokens (5/5.0, True/1);
        # the wire must preserve exactly the stored representative.
        summary = ExactCounter()
        batched.ingest(summary, ["5", 5, 5.0, True, 1, b"x", "x"])
        clone = serialization.load(serialization.dump(summary))
        assert clone.counters() == summary.counters()
        assert clone.estimate("5") == 1.0
        assert clone.estimate(5) == 2.0  # 5.0 collapsed onto 5
        assert clone.estimate(True) == 2.0  # 1 collapsed onto True
        assert clone.estimate(b"x") == 1.0
        assert clone.estimate("x") == 1.0
        stored = list(clone.counters())
        assert any(token is True for token in stored)
        assert not any(type(token) is float for token in stored)

    def test_non_finite_float_tokens(self):
        summary = SpaceSaving(num_counters=8)
        batched.ingest(summary, [float("inf"), float("-inf"), float("inf")])
        clone = serialization.load(serialization.dump(summary))
        assert clone.estimate(float("inf")) == 2.0
        assert clone.estimate(float("-inf")) == 1.0
        with pytest.raises(ValueError):
            batched.ingest(summary, [float("nan")])


# --------------------------------------------------------------------------- #
# v1 golden-file back-compat
# --------------------------------------------------------------------------- #


class TestGoldenV1:
    def test_summary_v1_still_loads(self):
        text = (DATA_DIR / "summary-v1.json").read_text(encoding="utf-8")
        assert json.loads(text)["version"] == 1  # the fixture really is v1
        clone = serialization.loads(text)
        assert type(clone) is SpaceSaving
        assert clone.estimate("alpha") == 3.0
        assert clone.estimate(7) == 3.0
        assert clone.estimate(2.5) == 1.0
        assert clone.stream_length == 8.0
        # A v1 payload re-dumped by this library becomes v2.
        assert serialization.dump(clone)["version"] == 2

    def test_lossy_counting_v1_still_loads(self):
        text = (DATA_DIR / "summary-lossy-v1.json").read_text(encoding="utf-8")
        assert json.loads(text)["version"] == 1
        clone = serialization.loads(text)
        assert clone.estimate("x") == 3.0
        assert clone.epsilon == 0.2

    def test_chunk_v1_still_loads(self):
        payload = json.loads((DATA_DIR / "chunk-v1.json").read_text("utf-8"))
        assert payload["version"] == 1
        chunk = serialization.load_chunk(payload)
        assert chunk.items() == ["a", "b", "a", 5, 5]
        assert chunk.weights.tolist() == [1.0, 2.0, 1.0, 0.5, 0.5]
        assert serialization.dump_chunk(chunk)["version"] == 2

    def test_v1_nan_key_rejected_at_load(self):
        # Pre-v2 check_item admitted NaN, so a real v1 snapshot can hold an
        # "f:nan" key; loading it would re-create a summary that can never
        # be re-dumped (accept-then-crash, one layer up).  The load
        # boundary must reject it with a clear error instead.
        with pytest.raises(serialization.SerializationError, match="NaN"):
            serialization.decode_item_key("f:nan")
        payload = serialization.dump(SpaceSaving(num_counters=4))
        payload["version"] = 1
        payload["counts"] = {"f:nan": 1.0, "s:ok": 2.0}
        payload["errors"] = {}
        with pytest.raises(serialization.SerializationError, match="NaN"):
            serialization.load(payload)

    def test_future_versions_still_rejected(self):
        payload = serialization.dump(SpaceSaving(num_counters=4))
        payload["version"] = 3
        with pytest.raises(serialization.SerializationError):
            serialization.load(payload)


# --------------------------------------------------------------------------- #
# Tuple-keyed service loop, end to end
# --------------------------------------------------------------------------- #


def _flow_of(index: int):
    """Deterministic 5-tuple flow key for a synthetic flow id."""
    return (
        f"10.0.{(index >> 8) & 255}.{index & 255}",
        f"192.168.0.{index % 32}",
        1024 + index % 500,
        443,
        "tcp" if index % 3 else "udp",
    )


@pytest.fixture()
def flow_server(tmp_path):
    """A live service persisting compressed snapshots, torn down after."""
    config = ServiceConfig(
        num_counters=600,
        num_shards=3,
        k=10,
        snapshot_dir=str(tmp_path),
        compress=True,
    )
    server = serve(config, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)


class TestFlowTupleServiceEndToEnd:
    def test_ingest_snapshot_persist_reload_query_with_merged_bound(
        self, flow_server
    ):
        stream = zipf_stream(num_items=800, alpha=1.2, total=30_000, seed=11)
        flows = [_flow_of(int(index)) for index in stream.items]
        exact = collections.Counter(flows)

        with ServiceClient(port=flow_server.port) as client:
            pushed = 0
            for chunk in batched.iter_chunks(flows, 4_096):
                pushed += client.ingest(chunk)  # tagged transparently
            assert pushed == len(flows)

            meta = client.snapshot(drain=True)
            assert meta["stream_length"] == float(len(flows))
            guarantee = meta["guarantee"]
            # Owner-shard answers: the shards' own constants, no merge.
            assert (guarantee["a"], guarantee["b"]) == (1.0, 1.0)
            k = int(guarantee["k"])
            bound = k_tail_bound(
                residual(exact, k),
                int(guarantee["num_counters"]),
                k,
                a=guarantee["a"],
                b=guarantee["b"],
            )

            top = client.top_k(10)
            assert top and all(isinstance(item, tuple) for item, _ in top)
            heaviest, estimate = top[0]
            assert heaviest == exact.most_common(1)[0][0]
            for item, value in top:
                assert abs(value - exact[item]) <= bound + 1e-9

            point = client.point(heaviest)
            assert point["estimate"] == estimate
            assert point["item"] == heaviest
            for item, count in exact.most_common(40):
                assert abs(client.point(item)["estimate"] - count) <= bound + 1e-9

            hitters = client.heavy_hitters(phi=0.02)
            for item, value in hitters:
                assert isinstance(item, tuple)
                assert value > 0.02 * len(flows)

            # Persist -> reload: the snapshot file is the v2 wire format.
            path = Path(meta["path"])
            assert path.exists()

        reloaded = SnapshotManager.load(path)
        persisted = json.loads(gzip.decompress(path.read_bytes()).decode("utf-8"))
        assert persisted["version"] == 2

        # The file holds the snapshot's union of shard copies: it answers
        # as the served snapshot, within the same (1, 1) bound.
        assert max_error(exact, reloaded) <= bound + 1e-9
        assert reloaded.top_k(10) == top
        assert reloaded.estimate(heaviest) == estimate

    def test_client_rejects_uncarriable_before_sending(self, flow_server):
        with ServiceClient(port=flow_server.port) as client:
            with pytest.raises(serialization.SerializationError):
                client.ingest([("flow", 1), ["not", "carriable"]])
            with pytest.raises(serialization.SerializationError):
                client.ingest([float("nan")])
            # The failures were purely local: no protocol ping ever went
            # out, so an uncarriable token can never surface as a
            # misleading "server too old" error.
            assert client._protocol is None
            assert client.ping()  # connection still healthy

    def test_raw_json_lists_rejected_server_side(self, flow_server):
        """A v1-style client sending a tuple as a bare JSON array must get
        a clean error payload, not a crash or silent corruption."""
        with ServiceClient(port=flow_server.port) as client:
            response = client.call({"op": "ping"})
            assert response["protocol"] >= 2
            bad = flow_server.service.handle(
                {"op": "ingest", "items": [["10.0.0.1", 443]]}
            )
            assert not bad["ok"] and "unhashable" in bad["error"]
            bad_query = flow_server.service.handle(
                {"op": "query", "type": "point", "item": ["10.0.0.1", 443]}
            )
            assert not bad_query["ok"] and "tagged" in bad_query["error"]


class TestStructuredWindows:
    def test_window_queries_over_tuple_tokens(self):
        config = ServiceConfig(
            num_counters=64, num_shards=2, k=5, window_buckets=3
        )
        with HeavyHittersService(config) as service:
            key = serialization.encode_item_key(("10.0.0.1", 443))
            for bucket in range(3):
                response = service.handle(
                    {
                        "op": "ingest",
                        "items": [key] * (bucket + 1),
                        "encoding": "tagged",
                    }
                )
                assert response["ok"]
                service.handle({"op": "advance-window"})
            service.sharded.flush()
            answer = service.handle(
                {
                    "op": "query",
                    "type": "window-point",
                    "item": key,
                    "item_encoding": "tagged",
                    "window": 3,
                }
            )
            assert answer["ok"]
            assert answer["item_tagged"] is True
            # Ring of 3: buckets (2 tokens, 3 tokens, empty current).
            assert answer["estimate"] == 5.0

    def test_codec_rotation_bounds_vocabulary(self):
        config = ServiceConfig(num_counters=32, num_shards=1, max_vocabulary=8)
        with HeavyHittersService(config) as service:
            for start in range(0, 64, 16):
                response = service.handle(
                    {"op": "ingest", "items": list(range(start, start + 16))}
                )
                assert response["ok"]
            assert len(service._codec) <= 8 + 16
            service.sharded.flush()
            assert service.sharded.stream_length == 64.0

    def test_decode_memo_rotation_bounds_memory(self):
        # Non-canonical key spellings ("i:07") decode onto existing tokens
        # without growing the codec, so the memo itself must be able to
        # trigger rotation or a hostile client grows server memory forever.
        config = ServiceConfig(num_counters=32, num_shards=1, max_vocabulary=8)
        with HeavyHittersService(config) as service:
            for padding in range(40):
                response = service.handle(
                    {
                        "op": "ingest",
                        "items": [f"i:{'0' * padding}7"],
                        "encoding": "tagged",
                    }
                )
                assert response["ok"]
            assert len(service._decode_memo) <= 8 + 1
            service.sharded.flush()
            assert service.sharded.stream_length == 40.0
