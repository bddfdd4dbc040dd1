"""Run every experiment and print the combined report.

``python -m repro.experiments.runner`` executes the full reproduction suite
(Table 1 plus every theorem experiment) with the default parameters and
prints one formatted table per experiment.  Pass ``--quick`` for a reduced
parameter grid (used in CI-style smoke runs).
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, List, Tuple

from repro.experiments.comparison import format_comparison, run_comparison
from repro.experiments.lower_bound import format_lower_bound, run_lower_bound
from repro.experiments.merge import format_merge, run_merge
from repro.experiments.sparse_recovery import (
    format_k_sparse,
    format_m_sparse,
    format_residual,
    run_k_sparse_recovery,
    run_m_sparse_recovery,
    run_residual_estimation,
)
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.tail_guarantee import format_tail_guarantee, run_tail_guarantee
from repro.experiments.topk import format_topk, run_topk
from repro.experiments.weighted import format_weighted, run_weighted
from repro.experiments.zipf import format_zipf, run_zipf

Experiment = Tuple[str, Callable[[], List], Callable[[List], str]]


def _experiments(quick: bool) -> List[Experiment]:
    """The experiment registry, optionally with a reduced grid."""
    if quick:
        return [
            ("T1: Table 1", lambda: run_table1(total=20_000, num_items=2_000), format_table1),
            (
                "E2: k-tail guarantee (Thm 2, App B/C)",
                lambda: run_tail_guarantee(counter_budgets=(100,), tail_ks=(10,)),
                format_tail_guarantee,
            ),
            ("E5: k-sparse recovery (Thm 5)", lambda: run_k_sparse_recovery(ks=(10,), epsilons=(0.2,)), format_k_sparse),
            ("E6: residual estimation (Thm 6)", lambda: run_residual_estimation(ks=(10,), epsilons=(0.2,)), format_residual),
            ("E7: m-sparse recovery (Thm 7)", lambda: run_m_sparse_recovery(ks=(10,), epsilons=(0.2,)), format_m_sparse),
            ("E8: Zipf guarantee (Thm 8)", lambda: run_zipf(alphas=(1.2,), epsilons=(0.01,)), format_zipf),
            ("E9: top-k on Zipf data (Thm 9)", lambda: run_topk(alphas=(1.5,), ks=(10,)), format_topk),
            ("E10: weighted streams (Thm 10)", lambda: run_weighted(counter_budgets=(200,), tail_ks=(10,)), format_weighted),
            ("E11: merging summaries (Thm 11)", lambda: run_merge(site_counts=(4,)), format_merge),
            ("E13: lower bound (Thm 13)", lambda: run_lower_bound(((20, 5, 10),)), format_lower_bound),
            ("EC: equal-space comparison", lambda: run_comparison(total=20_000, num_items=5_000), format_comparison),
        ]
    return [
        ("T1: Table 1", run_table1, format_table1),
        ("E2: k-tail guarantee (Thm 2, App B/C)", run_tail_guarantee, format_tail_guarantee),
        ("E5: k-sparse recovery (Thm 5)", run_k_sparse_recovery, format_k_sparse),
        ("E6: residual estimation (Thm 6)", run_residual_estimation, format_residual),
        ("E7: m-sparse recovery (Thm 7)", run_m_sparse_recovery, format_m_sparse),
        ("E8: Zipf guarantee (Thm 8)", run_zipf, format_zipf),
        ("E9: top-k on Zipf data (Thm 9)", run_topk, format_topk),
        ("E10: weighted streams (Thm 10)", run_weighted, format_weighted),
        ("E11: merging summaries (Thm 11)", run_merge, format_merge),
        ("E13: lower bound (Thm 13)", run_lower_bound, format_lower_bound),
        ("EC: equal-space comparison", run_comparison, format_comparison),
    ]


def run_all_experiments(quick: bool = False) -> Dict[str, List]:
    """Run every experiment; return a mapping from experiment name to rows."""
    return {name: runner() for name, runner, _ in _experiments(quick)}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced parameter grid")
    args = parser.parse_args(argv)
    for name, runner, formatter in _experiments(args.quick):
        rows = runner()
        print(f"\n=== {name} ===")
        print(formatter(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
