"""Tiny-size smoke run of every workload, plus checks of the checker.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` and ``manifest.json`` (which defines the workloads)
   must name the same workloads, reasons and metrics.
2. The oracle must accept real answers from a live server and reject
   deliberately corrupted copies of them, and a wrong acked count.
3. ``perfbench/run.py`` must fail, printing no result, in a directory
   holding only ``BENCHMARK.json`` and ``perfbench/``.
4. Each workload runs at a tiny size in both modes; every metric that
   ``BENCHMARK.json`` names for the mode must be emitted, with its unit.

Exits non-zero on the first failed check.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import loadgen, session, traced  # noqa: E402
from perfbench.loadgen import Tally  # noqa: E402
from perfbench.oracle import StreamOracle, Verdict  # noqa: E402
from perfbench.server import ServerProcess  # noqa: E402
from perfbench.session import Plan  # noqa: E402
from perfbench.workloads import WORKLOADS, Inputs, Workload  # noqa: E402

TINY = Plan(
    rounds=1,
    restarts_per_round=1,
    batches=1,
    snapshots_per_batch=2,
    queries_per_batch=5,
    crash_prefix_tokens=2_048,
    traced_snapshots=2,
    recoveries=1,
    backend_chunks=2,
)


def tiny(workload: Workload) -> Workload:
    return dataclasses.replace(
        workload,
        num_keys=3_000,
        chunk_tokens=1_024,
        pool_chunks=6,
        crash_tail_tokens=4_096,
        open_rate=None if workload.open_rate is None else 20_000.0,
    )


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def check_metrics(name: str, emitted: dict, declared: list[dict]) -> None:
    units = {metric["name"]: metric["unit"] for metric in declared}
    got = {metric: unit for metric, (_, unit) in emitted.items()}
    expect(got == units, f"{name} emits every declared metric with its unit")


def manifest_matches_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((ROOT / "perfbench" / "manifest.json").read_text())
    whys = {workload["name"]: workload["why"] for workload in spec["workloads"]}
    expect(
        whys == {name: entry["why"] for name, entry in manifest["workloads"].items()},
        "BENCHMARK.json and manifest.json agree on workloads and reasons",
    )
    expect(set(manifest["end_to_end"]) == {m["name"] for m in spec["end_to_end"]},
           "manifest.json defines every end-to-end metric")
    mapped = {
        f"{stage.split()[0]}.{measure}"
        for stage, entry in manifest["per_layer"].items()
        for measure in entry["measures"]
    }
    expect(mapped == {m["name"] for m in spec["per_layer"]},
           "manifest.json maps every per-layer metric to what it should move")
    targets = {
        target["metric"]
        for entry in manifest["per_layer"].values()
        for target in entry["should_move"]
    }
    expect(targets <= set(manifest["end_to_end"]),
           "every metric a layer should move is a declared end-to-end metric")


def smoke(work: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    for workload in WORKLOADS.values():
        small = tiny(workload)
        e2e_work, traced_work = work / f"{workload.name}-e2e", work / f"{workload.name}-traced"
        e2e_work.mkdir()
        traced_work.mkdir()
        outcome = session.run(small, 7, 1.0, src, e2e_work, TINY)
        failures = [m for verdict in outcome.verdicts for m in verdict.failures]
        expect(not failures and not outcome.tally.failed, f"{workload.name} answers check out")
        check_metrics(f"{workload.name} --trace 0", outcome.metrics.values, spec["end_to_end"])
        outcome = traced.run(small, 7, 1.0, src, traced_work, work, TINY)
        failures = [m for verdict in outcome.verdicts for m in verdict.failures]
        queried = sum(verdict.checked for verdict in outcome.verdicts[1:])
        expect(
            not failures and not outcome.tally.failed
            and (queried > 0) == (workload.open_rate is not None),
            f"{workload.name} traced run's answers, the reader's included, check out",
        )
        check_metrics(f"{workload.name} --trace 1", outcome.metrics.values, spec["per_layer"])
        expect(
            (work / f"spans-{workload.name}-seed7.jsonl").stat().st_size > 0,
            f"{workload.name} traced run wrote its spans",
        )


def oracle_rejects_corruption(work: Path) -> None:
    inputs = Inputs(tiny(WORKLOADS["dashboard-mixed"]), 3)
    oracle = StreamOracle.for_inputs(inputs)
    tally = Tally()
    server = ServerProcess(ROOT / "src", work / "oracle").launch()
    try:
        with server.client() as client:
            loadgen.warm_up(client, inputs, oracle, tally)
            client.snapshot(drain=True)
            top = loadgen.query_top_k(client, session.K)
            point = client.point(inputs.item(inputs.point_keys[0]))
            final = session.final_checks(client, inputs, oracle, Tally())
            oracle.ack(inputs.pool_ids(0))  # acked in the oracle, never sent
            miscount = session.final_checks(client, inputs, oracle, Tally())
            oracle.acked.pop()
    finally:
        server.kill()

    def verdict_of(response: dict) -> Verdict:
        verdict = Verdict()
        oracle.check(response, verdict)
        return verdict

    expect(not final.failures, "oracle accepts the live server's answers")
    expect(not verdict_of(top).failures and not verdict_of(point).failures,
           "oracle accepts a real top-k and point answer")
    bound = session.K * oracle.cut(point).total  # far beyond any advertised bound
    bad_point = dict(point, estimate=point["estimate"] + bound)
    expect(bool(verdict_of(bad_point).failures), "oracle rejects an estimate outside its bound")
    bad_top = copy.deepcopy(top)
    bad_top["top_k"] = bad_top["top_k"][1:]
    expect(bool(verdict_of(bad_top).failures), "oracle rejects a top-k that omits the top key")
    bad_length = dict(point, stream_length=point["stream_length"] + 1)
    expect(bool(verdict_of(bad_length).failures), "oracle rejects a wrong stream length")
    expect(bool(miscount.failures), "a wrong acked count fails the run")


def bare_directory_fails(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        command + ["--workload", "ints-json", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(done.returncode != 0 and not done.stdout.strip(),
           "run.py fails without printing a result when the sources are missing")


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        manifest_matches_spec()
        oracle_rejects_corruption(work)
        bare_directory_fails(work)
        smoke(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
