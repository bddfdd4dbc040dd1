"""Tests for the concurrency lint engine and the lock-order witness.

The lint fixtures under ``tests/data/lint/`` carry their own expectations
inline: every deliberately violating line ends with ``lint-expect: LNNN``.
The tests assert the engine reports *exactly* those (rule, line) pairs --
no extras, no misses -- and that every ``*_clean.py`` counterpart is
silent.
"""

from __future__ import annotations

import contextlib
import re
import threading
import time
from pathlib import Path

import pytest

from repro import cli as repro_cli
from repro.analysis import all_rules, analyze_file, analyze_source
from repro.analysis import witness
from repro.analysis.cli import main as lint_main
from repro.analysis.framework import parse_directives
from repro.analysis.report import render_json, render_text

FIXTURE_DIR = Path(__file__).parent / "data" / "lint"
SRC_DIR = Path(__file__).parents[1] / "src"

_EXPECT_RE = re.compile(r"lint-expect:\s*(L\d{3})")


def expected_findings(path: Path) -> set[tuple[str, int]]:
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for rule in _EXPECT_RE.findall(line):
            expected.add((rule, lineno))
    return expected


# --------------------------------------------------------------------------- #
# Lint engine: fixture files
# --------------------------------------------------------------------------- #


class TestLintFixtures:
    @pytest.mark.parametrize(
        "fixture",
        sorted(FIXTURE_DIR.glob("*_violation.py")),
        ids=lambda path: path.stem,
    )
    def test_violation_fixture_reports_exact_rules_and_lines(self, fixture):
        expected = expected_findings(fixture)
        assert expected, f"{fixture} carries no lint-expect markers"
        actual = {(f.rule, f.line) for f in analyze_file(fixture)}
        assert actual == expected

    @pytest.mark.parametrize(
        "fixture",
        sorted(FIXTURE_DIR.glob("*_clean.py")),
        ids=lambda path: path.stem,
    )
    def test_clean_fixture_is_silent(self, fixture):
        assert analyze_file(fixture) == []

    def test_every_rule_has_a_violation_fixture(self):
        covered = {
            rule
            for path in FIXTURE_DIR.glob("*_violation.py")
            for rule, _ in expected_findings(path)
        }
        assert covered == {rule.rule_id for rule in all_rules()}


# --------------------------------------------------------------------------- #
# Lint engine: directives
# --------------------------------------------------------------------------- #


class TestDirectives:
    def test_allow_suppresses_same_line(self):
        source = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "def f():\n"
            "    lock.acquire()  # repro-lint: allow[L001] test reason\n"
        )
        assert analyze_source(source) == []

    def test_allow_suppresses_line_above(self):
        source = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "def f():\n"
            "    # repro-lint: allow[L001] test reason\n"
            "    lock.acquire()\n"
        )
        assert analyze_source(source) == []

    def test_allow_for_other_rule_does_not_suppress(self):
        source = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "def f():\n"
            "    lock.acquire()  # repro-lint: allow[L002] wrong rule\n"
        )
        assert [(f.rule, f.line) for f in analyze_source(source)] == [("L001", 4)]

    def test_allow_without_reason_is_l000(self):
        source = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "def f():\n"
            "    lock.acquire()  # repro-lint: allow[L001]\n"
        )
        rules = {f.rule for f in analyze_source(source)}
        assert "L000" in rules

    def test_boundary_without_reason_is_l000(self):
        directives = parse_directives("# repro-lint: boundary\n")
        assert directives.problems

    def test_hot_path_tag_parses(self):
        assert parse_directives("# repro-lint: hot-path\n").hot_path


# --------------------------------------------------------------------------- #
# Lint engine: CLI
# --------------------------------------------------------------------------- #


class TestLintCli:
    def test_exits_clean_on_the_real_source_tree(self, capsys):
        assert lint_main([str(SRC_DIR)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repro_cli_lint_verb(self, capsys):
        assert repro_cli.main(["lint", str(SRC_DIR)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_nonzero_exit_and_text_output_on_findings(self, capsys):
        fixture = FIXTURE_DIR / "l001_violation.py"
        assert lint_main([str(fixture)]) == 1
        out = capsys.readouterr().out
        assert "L001" in out
        assert "finding" in out

    def test_json_output(self, capsys):
        import json

        fixture = FIXTURE_DIR / "l004_violation.py"
        assert lint_main([str(fixture), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "L004"

    def test_rule_selection(self, capsys):
        fixture = FIXTURE_DIR / "l001_violation.py"
        assert lint_main([str(fixture), "--rules", "L004"]) == 0
        capsys.readouterr()

    def test_unknown_rule_id_errors(self):
        with pytest.raises(SystemExit):
            lint_main([str(FIXTURE_DIR), "--rules", "L999"])

    def test_missing_path_exits_2(self, capsys):
        assert lint_main(["no/such/path.py"]) == 2
        capsys.readouterr()

    def test_list_rules_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out


# --------------------------------------------------------------------------- #
# Lint engine: report rendering
# --------------------------------------------------------------------------- #


class TestReport:
    def test_text_summary_counts_by_rule(self):
        findings = analyze_file(FIXTURE_DIR / "l003_violation.py")
        text = render_text(findings)
        assert "L003=2" in text

    def test_json_round_trips(self):
        import json

        findings = analyze_file(FIXTURE_DIR / "l006_violation.py")
        payload = json.loads(render_json(findings))
        assert [f["rule"] for f in payload["findings"]] == ["L006"]


# --------------------------------------------------------------------------- #
# Lock-order witness
# --------------------------------------------------------------------------- #


@contextlib.contextmanager
def witnessed():
    """Install a fresh witness, or reuse the env-flag one from conftest."""
    active = witness.current()
    if active is not None:
        yield active
        return
    with witness.installed_witness() as fresh:
        yield fresh


class TestWitnessUnit:
    def test_ordering_cycle_raises_with_both_stacks(self):
        w = witness.LockWitness()
        a = w.make_lock()
        b = w.make_lock()
        with a:
            with b:
                pass
        with b:
            with pytest.raises(witness.LockOrderViolation) as err:
                a.acquire()
        message = str(err.value)
        assert "cycle" in message
        assert a.site in message and b.site in message
        # Both sides of the would-be deadlock are present: the acquiring
        # stack and the recorded stack of the conflicting edge.
        assert message.count("test_analysis.py") >= 2

    def test_same_thread_reacquire_raises_instead_of_deadlocking(self):
        w = witness.LockWitness()
        a = w.make_lock()
        a.acquire()
        try:
            with pytest.raises(witness.LockOrderViolation) as err:
                a.acquire()
            assert "re-acquire" in str(err.value)
        finally:
            a.release()

    def test_nonblocking_acquire_never_participates_in_cycles(self):
        w = witness.LockWitness()
        a = w.make_lock()
        b = w.make_lock()
        with a:
            with b:
                pass
        with b:
            # A try-lock cannot block, so the reverse order is legal here.
            assert a.acquire(blocking=False)
            a.release()
        assert not w.violations

    def test_same_site_instances_do_not_create_edges(self):
        w = witness.LockWitness()

        def make():
            return w.make_lock()

        first, second = make(), make()
        assert first.site == second.site
        with first:
            with second:  # nested same-site acquire: two shard workers
                pass
        assert w.edge_count() == 0
        assert not w.violations

    def test_install_patches_and_uninstall_restores(self):
        real_factory = threading.Lock
        with witnessed() as w:
            lock = threading.Lock()
            if witness.current() is w:
                assert isinstance(lock, witness.WitnessLock)
            with lock:
                pass
        if witness.current() is None:
            assert threading.Lock is real_factory or not witness.witness_enabled_by_env()

    def test_violation_swallowed_in_worker_thread_resurfaces_at_exit(self):
        if witness.current() is not None:
            pytest.skip("conftest witness active; nested install not possible")
        w = witness.LockWitness()
        a = w.make_lock()
        b = w.make_lock()
        with a:
            with b:
                pass

        def worker():
            try:
                with b:
                    with a:
                        pass
            except witness.LockOrderViolation:
                pass  # a daemon thread would swallow it exactly like this

        with pytest.raises(witness.LockOrderViolation):
            with witness.installed_witness(w):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join(timeout=10)

    def test_condition_wait_releases_and_restores_held_stack(self):
        w = witness.LockWitness()
        cond = threading.Condition(w.make_lock())
        ready = []

        def waiter():
            with cond:
                while not ready:
                    cond.wait(timeout=5)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        with cond:
            ready.append(1)
            cond.notify_all()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert w.held_sites() == ()
        assert w.acquisitions > 0
        assert not w.violations


class TestWitnessStress:
    def test_multi_producer_ingest_snapshot_checkpoint_has_no_cycles(self, tmp_path):
        """The acceptance scenario: 4 producers ingest through the WAL and
        shard queues while snapshot refreshes, checkpoints, and metric
        scrapes run concurrently -- under the witness, with every lock
        created by the service instrumented, the acquisition graph must
        stay acyclic."""
        from repro.service import HeavyHittersService, ServiceConfig
        from repro.streams.batched import iter_chunks
        from repro.streams.generators import zipf_stream

        stream = zipf_stream(num_items=200, alpha=1.1, total=8_000, seed=23)
        chunks = list(iter_chunks(stream.items, 400))
        num_producers = 4
        errors: list[BaseException] = []

        with witnessed() as w:
            config = ServiceConfig(
                num_counters=128,
                num_shards=4,
                k=5,
                wal_dir=str(tmp_path / "wal"),
                fsync="off",
                wal_segment_bytes=4_096,  # rotate under load
                metrics=True,
                tracing=True,
                trace_sample_rate=1.0,
                audit_rate=0.5,
            )
            service = HeavyHittersService(config).start()
            stop = threading.Event()

            def produce(worker_id: int) -> None:
                try:
                    for chunk in chunks[worker_id::num_producers]:
                        response = service.handle({"op": "ingest", "items": chunk})
                        assert response["ok"], response
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            def churn(op) -> None:
                try:
                    while not stop.is_set():
                        op()
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            producers = [
                threading.Thread(target=produce, args=(worker_id,))
                for worker_id in range(num_producers)
            ]
            def refresh() -> None:
                service.snapshots.refresh(drain=True)

            aux = [
                threading.Thread(target=churn, args=(refresh,)),
                threading.Thread(target=churn, args=(service.checkpoint,)),
                threading.Thread(target=churn, args=(service.metrics.render,)),
            ]
            for thread in producers + aux:
                thread.start()
            for thread in producers:
                thread.join(timeout=120)
                assert not thread.is_alive(), "producer deadlocked"
            stop.set()
            for thread in aux:
                thread.join(timeout=120)
                assert not thread.is_alive(), "auxiliary thread deadlocked"
            assert not errors, errors
            service.sharded.flush()
            assert service.sharded.stream_length == float(len(stream.items))
            service.close()

            # The witness really saw the service's locks, and the graph
            # stayed acyclic (a cycle would have raised mid-run).
            assert w.acquisitions > 1_000
            assert w.edge_count() > 0
            assert not w.violations
