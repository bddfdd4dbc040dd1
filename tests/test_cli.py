"""Tests for the command-line interface."""

import json
import shutil
from pathlib import Path

import pytest

from repro import serialization
from repro.cli import build_parser, main


@pytest.fixture()
def workload_file(tmp_path):
    path = tmp_path / "workload.txt"
    lines = ["alpha"] * 60 + ["beta"] * 25 + [f"noise-{i}" for i in range(15)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def weighted_file(tmp_path):
    path = tmp_path / "weighted.csv"
    lines = ["flow-1,100.0"] * 5 + ["flow-2,10.0"] * 3 + ["flow-3,1.0"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.txt"])
        assert args.workload == "zipf"
        assert args.length == 100_000

    def test_unknown_algorithm_rejected(self, workload_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["top-k", str(workload_file), "--algorithm", "bogus"]
            )


class TestServeParser:
    def test_shard_backend_accepts_only_thread(self):
        args = build_parser().parse_args(["serve", "--shard-backend", "thread"])
        assert args.shard_backend == "thread"
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--shard-backend", "process"])
        assert excinfo.value.code == 2


class TestGenerate:
    @pytest.mark.parametrize("workload", ["zipf", "uniform", "query-log"])
    def test_writes_requested_number_of_tokens(self, tmp_path, workload, capsys):
        output = tmp_path / "stream.txt"
        code = main(
            [
                "generate",
                str(output),
                "--workload",
                workload,
                "--items",
                "100",
                "--length",
                "500",
            ]
        )
        assert code == 0
        lines = output.read_text().strip().splitlines()
        # Zipf drops items whose ideal frequency rounds below one, so the
        # realised length may be slightly below the requested length.
        assert 300 <= len(lines) <= 500
        assert "wrote" in capsys.readouterr().out

    def test_trace_workload_writes_weighted_pairs(self, tmp_path):
        output = tmp_path / "trace.csv"
        main(
            [
                "generate",
                str(output),
                "--workload",
                "trace",
                "--items",
                "50",
                "--length",
                "200",
            ]
        )
        first = output.read_text().splitlines()[0]
        item, weight = first.rsplit(",", 1)
        assert float(weight) > 0


class TestHeavyHitters:
    def test_reports_heavy_items(self, workload_file, capsys):
        code = main(["heavy-hitters", str(workload_file), "--phi", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha" in out
        assert "beta" in out
        assert "noise-0" not in out

    def test_weighted_input(self, weighted_file, capsys):
        code = main(
            ["heavy-hitters", str(weighted_file), "--phi", "0.5", "--weighted"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flow-1" in out
        assert "flow-3" not in out


class TestTopK:
    def test_prints_ranked_items(self, workload_file, capsys):
        code = main(["top-k", str(workload_file), "--k", "2", "--counters", "50"])
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert "alpha" in lines[1]
        assert "beta" in lines[2]

    def test_frequent_backend(self, workload_file, capsys):
        code = main(
            ["top-k", str(workload_file), "--k", "1", "--algorithm", "frequent"]
        )
        assert code == 0
        assert "alpha" in capsys.readouterr().out


class TestSummarizeAndMerge:
    def test_summarize_writes_loadable_json(self, workload_file, tmp_path, capsys):
        output = tmp_path / "summary.json"
        code = main(
            [
                "summarize",
                str(workload_file),
                "--output",
                str(output),
                "--counters",
                "32",
            ]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        summary = serialization.load(payload)
        assert summary.estimate("alpha") >= 60

    def test_merge_combines_site_summaries(self, tmp_path, capsys):
        site_files = []
        for site in range(3):
            workload = tmp_path / f"site{site}.txt"
            workload.write_text(
                "\n".join(["popular"] * 40 + [f"only-{site}"] * 5) + "\n",
                encoding="utf-8",
            )
            summary_path = tmp_path / f"site{site}.json"
            main(
                [
                    "summarize",
                    str(workload),
                    "--output",
                    str(summary_path),
                    "--counters",
                    "16",
                ]
            )
            site_files.append(str(summary_path))
        merged_path = tmp_path / "merged.json"
        code = main(
            ["merge", *site_files, "--k", "4", "--output", str(merged_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "popular" in out
        merged = serialization.loads(merged_path.read_text())
        assert merged.estimate("popular") == pytest.approx(120.0)

    def test_merge_rejects_mixed_algorithms(self, workload_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["summarize", str(workload_file), "--output", str(first)])
        main(
            [
                "summarize",
                str(workload_file),
                "--output",
                str(second),
                "--algorithm",
                "frequent",
            ]
        )
        with pytest.raises(SystemExit):
            main(["merge", str(first), str(second)])

    def test_merge_rejects_mixed_budgets(self, workload_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["summarize", str(workload_file), "--output", str(first), "--counters", "16"])
        main(["summarize", str(workload_file), "--output", str(second), "--counters", "32"])
        with pytest.raises(SystemExit):
            main(["merge", str(first), str(second)])


class TestExperimentsCommand:
    def test_quick_run_prints_every_experiment(self, capsys):
        code = main(["experiments", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "lower bound" in out


class TestServeAndQueryCommands:
    @pytest.fixture()
    def live_service(self):
        import threading

        from repro.service import ServiceConfig, serve

        config = ServiceConfig(
            num_counters=200, num_shards=2, k=5, window_buckets=3
        )
        server = serve(config, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.port
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(timeout=5)

    def test_query_drives_a_live_service(self, live_service, workload_file, capsys):
        port = str(live_service)
        assert main(["query", "ping", "--port", port]) == 0
        capsys.readouterr()
        assert main(
            ["query", "ingest", "--port", port, "--input", str(workload_file)]
        ) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["ingested"] == 100
        assert main(["query", "snapshot", "--port", port]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["stream_length"] == 100.0
        # Owner-shard answers keep the shards' own (1, 1) constants.
        guarantee = snapshot["guarantee"]
        assert (guarantee["a"], guarantee["b"]) == (1.0, 1.0)
        # F1_res(5) of 60 x alpha, 25 x beta and 15 singletons is 12.
        bound = 12.0 / (guarantee["num_counters"] - guarantee["k"])
        assert main(["query", "top-k", "--port", port, "--k", "2"]) == 0
        top = json.loads(capsys.readouterr().out)
        assert top["top_k"][0]["item"] == "alpha"
        assert abs(top["top_k"][0]["estimate"] - 60.0) <= bound
        assert main(["query", "point", "--port", port, "--item", "beta"]) == 0
        point = json.loads(capsys.readouterr().out)
        assert abs(point["estimate"] - 25.0) <= bound
        assert main(["query", "advance-window", "--port", port]) == 0
        capsys.readouterr()
        assert main(["query", "stats", "--port", port]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_shards"] == 2
        assert stats["window"]["current_bucket"] == 1

    def test_query_tagged_structured_tokens(self, live_service, capsys):
        """A flow 5-tuple addressed from the shell via the v2 tagged key."""
        from repro.service.client import ServiceClient

        port = str(live_service)
        flow = ("10.0.0.1", 443)
        with ServiceClient(port=live_service) as client:
            client.ingest([flow] * 7 + ["plain"] * 2)
            client.snapshot()
        assert main(
            [
                "query",
                "point",
                "--port",
                port,
                "--tagged",
                "--item",
                't:["s:10.0.0.1","i:443"]',
            ]
        ) == 0
        point = json.loads(capsys.readouterr().out)
        assert point["estimate"] == 7.0
        assert point["item"] == ["10.0.0.1", 443]  # tuple prints as JSON array
        assert main(["query", "top-k", "--port", port, "--k", "2"]) == 0
        top = json.loads(capsys.readouterr().out)
        assert top["top_k"][0]["item"] == ["10.0.0.1", 443]
        assert "item_tagged" not in top["top_k"][0]
        with pytest.raises(SystemExit, match="invalid --item"):
            main(
                ["query", "point", "--port", port, "--tagged", "--item", "q:bad"]
            )

    def test_query_reports_service_errors(self, live_service, capsys):
        port = str(live_service)
        with pytest.raises(SystemExit):
            main(["query", "window-top-k", "--port", port, "--window", "9"])
        with pytest.raises(SystemExit):
            main(["query", "point", "--port", port])  # missing --item

    def test_query_unreachable_service(self):
        with pytest.raises(SystemExit):
            main(["query", "ping", "--port", "1", "--host", "127.0.0.1"])

    @pytest.mark.parametrize(
        "argv", [["--algorithm", "spacesaving"], ["--weighted"]], ids=["algorithm", "weighted"]
    )
    def test_serve_has_one_shard_summary(self, argv, capsys):
        """The shard summary is not an option: the old flags are usage errors."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert not hasattr(args, "algorithm") and not hasattr(args, "weighted")
        assert args.shards == 4
        assert args.window_buckets == 0
        assert args.wal_dir is None
        assert args.fsync == "interval"
        assert args.checkpoint_interval == 0.0

    def test_checkpoint_against_wal_less_service_is_an_error(self, live_service):
        with pytest.raises(SystemExit, match="service error"):
            main(["query", "checkpoint", "--port", str(live_service)])


class TestCliErrorPaths:
    """Operational failures must exit non-zero with one actionable line."""

    def _assert_one_line(self, excinfo):
        message = str(excinfo.value.code)
        assert message and "\n" not in message
        assert "Traceback" not in message
        return message

    def test_query_against_dead_server(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "stats", "--port", "1", "--host", "127.0.0.1"])
        message = self._assert_one_line(excinfo)
        assert "cannot reach service" in message

    def test_recover_missing_wal_dir(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["recover", "--wal-dir", str(tmp_path / "never-existed")])
        message = self._assert_one_line(excinfo)
        assert "recovery failed" in message

    def test_recover_empty_wal_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["recover", "--wal-dir", str(empty)])
        assert "recovery failed" in self._assert_one_line(excinfo)

    def test_recover_corrupt_wal_segment(self, tmp_path):
        from repro.service.wal import write_manifest

        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        write_manifest(corrupt, {"algorithm": "spacesaving", "num_shards": 2})
        (corrupt / "wal-00000001.log").write_bytes(b"this is not a wal segment")
        with pytest.raises(SystemExit) as excinfo:
            main(["recover", "--wal-dir", str(corrupt)])
        message = self._assert_one_line(excinfo)
        assert "recovery failed" in message and "magic" in message

    def test_recover_rejects_k_below_one(self, tmp_path):
        wal = tmp_path / "wal-torn"
        shutil.copytree(Path(__file__).parent / "data" / "wal-torn", wal)
        with pytest.raises(SystemExit) as excinfo:
            main(["recover", "--wal-dir", str(wal), "--k", "0"])
        message = self._assert_one_line(excinfo)
        assert "recovery failed" in message and "k must be >= 1, got 0" in message

    @pytest.mark.parametrize(
        "argv", [["--phi", "2"], ["--phi", "0"], ["--phi", "0.1", "--epsilon", "0.5"]]
    )
    def test_heavy_hitters_rejects_out_of_range_phi(self, workload_file, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["heavy-hitters", str(workload_file), *argv])
        assert "must lie in" in self._assert_one_line(excinfo)

    def test_merge_rejects_k_below_one(self, workload_file, tmp_path):
        summary = tmp_path / "a.json"
        main(["summarize", str(workload_file), "--output", str(summary)])
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(summary), str(summary), "--k", "0"])
        assert "--k must be >= 1, got 0" in self._assert_one_line(excinfo)

    def test_serve_refuses_corrupt_wal_dir(self, tmp_path):
        from repro.service.wal import write_manifest

        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        write_manifest(corrupt, {"algorithm": "spacesaving", "num_shards": 2})
        (corrupt / "wal-00000001.log").write_bytes(b"garbage segment header!!")
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--wal-dir", str(corrupt)])
        message = self._assert_one_line(excinfo)
        assert "cannot recover WAL" in message

    @pytest.fixture()
    def v1_server(self):
        """A fake protocol-1 server: pongs, but cannot carry tagged tokens."""
        import json as jsonlib
        import socketserver
        import threading

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for line in self.rfile:
                    if not line.strip():
                        continue
                    response = {"ok": True, "pong": True, "protocol": 1}
                    self.wfile.write(
                        (jsonlib.dumps(response) + "\n").encode("utf-8")
                    )
                    self.wfile.flush()

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.server_address[1]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_tagged_query_against_v1_server_is_refused(self, v1_server):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "query",
                    "point",
                    "--port",
                    str(v1_server),
                    "--tagged",
                    "--item",
                    't:["s:10.0.0.1","i:443"]',
                ]
            )
        message = self._assert_one_line(excinfo)
        assert "protocol 1" in message
        assert "structured tokens" in message
