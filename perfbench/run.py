"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ints-json --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run against a
``repro serve`` process; ``--trace 1`` prints the per-layer metrics of a
traced in-process run of the same chunks (see ``perfbench/README.md``).
The service is run from the checkout's ``src/`` directory.  The command
exits non-zero, with ``"correct": false``, when any answer breaks its
advertised bound or any acked count is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space (WAL directories, server logs) and span output.
OUTPUT = ROOT / ".perfbench"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import session, traced
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    from perfbench.server import split_cpus

    split = split_cpus()
    if split is not None:
        os.sched_setaffinity(0, split[0])
    OUTPUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT))
    try:
        if args.trace:
            outcome = traced.run(workload, args.seed, args.seconds, SRC, work, OUTPUT)
        else:
            outcome = session.run(workload, args.seed, args.seconds, SRC, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in outcome.notes:
        print(note)
    failures = [message for verdict in outcome.verdicts for message in verdict.failures]
    failed = outcome.tally.failed + sum(verdict.failed_ops for verdict in outcome.verdicts)
    correct = failed == 0
    for message in (outcome.tally.errors + failures)[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": outcome.tally.attempted,
        "failed": failed,
        "metrics": outcome.metrics.as_json() if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
